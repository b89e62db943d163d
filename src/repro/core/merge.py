"""The deterministic merge (Algorithm 1, Task 4).

A learner subscribed to several rings receives one gapless, ordered stream
of decided items per ring. The merge delivers them round-robin: rings are
visited in ascending ring id, and exactly M consecutive consensus
instances are consumed from a ring before moving to the next, so ring
``r``'s instance ``i`` is consumed in round ``i // M`` at ring ``r``'s
turn. That place depends on nothing a learner subscribes to, so any two
learners deliver their common messages in the same relative order —
uniform partial order — also when a group remap changes one learner's
ring set and not the other's.

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

from bisect import bisect_left
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
        Ring ids in the visit order: ascending.
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
        _check_order(ring_order)
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
        self._round = 0
        # Set while a ring that joined behind the merge's place catches up:
        # the (cursor, quota) to go on from afterwards.
        self._resume: tuple[int, int] | None = None
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
                and self._resume is None
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
                        # reconfiguration cut was consumed): the locals
                        # here are stale, go on from the merge's place.
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
        self._round += take // m
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
        if self._resume is not None:
            (self._cursor, self._quota), self._resume = self._resume, None
            return
        self._cursor += 1
        if self._cursor == len(self.ring_order):
            self._cursor = 0
            self._round += 1
        self._quota = self.m

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple:
        """The merge state for a checkpoint: (cursor, remaining quota,
        each ring's buffered entries, round, catch-up resume point).

        The ring learners' checkpointed positions are their *input*
        positions, past everything buffered here, so a restore cannot
        replay the buffered items: they are part of the checkpoint. Skip
        entries are copied (the merge consumes them in place); batch
        entries are immutable and shared.
        """
        queues = {ring_id: _copy_entries(queue) for ring_id, queue in self._queues.items()}
        return (self._cursor, self._quota, queues, self._round, self._resume)

    def restore(self, state: tuple) -> None:
        """Rewind to a checkpointed state, buffered items included.

        The owning learner rolls its ring learners back to the matching
        input positions, so ``push`` resumes right after what the queues
        hold. A ring joined since the checkpoint starts empty. The entries
        are copied again: one checkpoint may be restored more than once.
        """
        self._cursor, self._quota, queues, self._round, self._resume = state
        buffered = 0
        for ring_id in self._queues:
            self._queues[ring_id] = deque(_copy_entries(queues.get(ring_id, ())))
            depth = self.queue_depth(ring_id)
            self.queue_gauges[ring_id].value = depth
            buffered += depth
        self.buffered_instances.value = buffered

    # ------------------------------------------------------------------
    # Reconfiguration
    # ------------------------------------------------------------------
    def set_ring_order(self, ring_order: list[int], joined: tuple[int, int] | None = None) -> None:
        """Adopt a new ring set at a reconfiguration cut, keeping the place.

        Safe to call from within ``on_deliver`` — the merge loop goes on
        after finishing the batch in hand. The ring whose turn it is keeps
        its turn if it stays, else the turn passes to the next ring in
        order: a learner whose ring set did not change goes on through
        the same rounds. Queues of rings leaving are discarded (their
        remaining items belong to groups this learner no longer receives);
        rings joining start with an empty queue.

        ``joined`` is ``(ring, instance)`` for a ring whose stream starts
        at ``instance`` rather than where the merge's place has reached on
        it. A gap up to ``instance`` is absorbed as skips; instances the
        place has already passed are consumed first, before the merge goes
        on — where a learner that had the ring all along released the
        values it held for the move.
        """
        _check_order(ring_order)
        current = self.ring_order[self._cursor]
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
        rnd = self._round
        self._cursor = bisect_left(ring_order, current)
        if current not in ring_order:  # the turn passes on, maybe round the wrap
            self._round += self._cursor == len(ring_order)
            self._cursor, self._quota = self._cursor % len(ring_order), self.m
        if joined is not None:
            ring_id, start = joined
            # Rings before the current one have had this round's turn.
            place = (rnd + (ring_id < current)) * self.m
            if start > place:
                self._queues[ring_id].append([start - place])
                self.buffered_instances.value += start - place
                self.queue_gauges[ring_id].value += start - place
            elif start < place:
                self._resume = (self._cursor, self._quota)
                self._cursor, self._quota = ring_order.index(ring_id), place - start
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


def _check_order(ring_order: list[int]) -> None:
    if not ring_order:
        raise ValueError("merge needs at least one ring")
    if list(ring_order) != sorted(set(ring_order)):
        raise ValueError("ring_order must be ascending ring ids")


def _copy_entries(queue) -> list:
    """A queue's entries with each skip entry (``[remaining]``) copied."""
    return [entry[:] if isinstance(entry, list) else entry for entry in queue]
