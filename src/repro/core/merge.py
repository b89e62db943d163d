"""The deterministic merge (Algorithm 1, Task 4).

A learner subscribed to several rings receives one gapless, ordered stream
of decided items per ring. Task 4 visits the rings in ascending ring id
and consumes exactly M consecutive consensus instances from a ring before
moving to the next, so ring ``r``'s instance ``i`` is consumed in round
``i // M`` at ring ``r``'s turn. The merge is that order and nothing
more: it keeps, per ring, the next instance it consumes, and the turn is
the ring with the smallest key ``(next // M, ring)``. The key depends on
nothing a learner subscribes to, so any two learners deliver their
common messages in the same relative order — uniform partial order —
also when a group remap changes one learner's ring set and not the
other's.

Consuming an instance means: deliver every client value in a data batch
(one batch occupies one instance), or silently absorb one instance of a
skip range (a skip range decided at instance k stands for ``count``
consecutive ⊥ instances and can straddle turns).

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

__all__ = ["DeterministicMerge", "stream_ends"]


class DeterministicMerge:
    """Merge of per-ring decided-item streams in ``(instance // M, ring)`` order.

    Parameters
    ----------
    ring_order:
        The ring ids merged, ascending.
    m:
        Consensus instances consumed per ring per turn (the paper's M).
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
        if not ring_order or list(ring_order) != sorted(set(ring_order)):
            raise ValueError("ring_order must be one or more ascending ring ids")
        if m <= 0:
            raise ValueError("M must be positive")
        self.rings = list(ring_order)
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
        # Per ring: the next instance consumed, and the FIFO of the
        # (instance, item) pairs pushed and not yet wholly consumed. The
        # entries are never changed: a skip range's head may be partly
        # consumed, which ``next`` alone records.
        self.next: dict[int, int] = {rid: 0 for rid in ring_order}
        self._queues: dict[int, deque] = {rid: deque() for rid in ring_order}

    # ------------------------------------------------------------------
    # Input (called by each ring's learner, in that ring's order)
    # ------------------------------------------------------------------
    def push(self, ring_id: int, instance: int, item: DataBatch | SkipRange, now: float = 0.0) -> None:
        """Feed the next in-order decided item of ``ring_id``."""
        queue = self._queues.get(ring_id)
        if queue is None:
            return  # stale feed of a ring dropped by a reconfiguration
        queue.append((instance, item))
        count = item.instance_count
        self.buffered_instances.value += count
        self.queue_gauges[ring_id].value += count
        if self.halted:
            return
        if self.buffered_instances.value > self.buffer_limit:
            self.halted, self.halted_at = True, now
            if self.on_halt is not None:
                self.on_halt()
            return
        self._advance()

    # ------------------------------------------------------------------
    # The merge loop
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Consume in key order until the turn's ring has nothing.

        The turn is re-read after every entry, so ``on_deliver`` may
        ``join`` or ``leave`` a ring: the loop goes on in the new order.
        """
        m = self.m
        nxt = self.next
        key = nxt.__getitem__ if m == 1 else (lambda ring: nxt[ring] // m)
        while True:
            rings = self.rings
            ring = min(rings, key=key)  # ties: the first, lowest id
            queue = self._queues[ring]
            if not queue:
                return  # the turn's ring has nothing yet: wait for it
            instance, item = queue[0]
            position = nxt[ring]
            if isinstance(item, SkipRange):
                rnd = position // m
                # Every ring at the turn's round puts the turn on the first.
                if ring == rings[0] and self._skip_rounds(rnd):
                    continue
                end = instance + item.count
                stop = min(end, (rnd + 1) * m)  # the rest of this turn, at most
                if stop == end:
                    queue.popleft()
                nxt[ring] = stop
                take = stop - position
                self.skipped_instances.value += take
                self.consumed_instances.value += take
                self.buffered_instances.value -= take
                self.queue_gauges[ring].value -= take
            else:
                queue.popleft()
                nxt[ring] = position + 1
                self.consumed_instances.value += 1
                self.buffered_instances.value -= 1
                self.queue_gauges[ring].value -= 1
                for value in item.values:
                    self.delivered_messages.value += 1
                    self.on_deliver(ring, instance, value)

    def _skip_rounds(self, rnd: int) -> bool:
        """Absorb whole rounds of skips at once; False if there is none.

        Applies when every ring is at the turn's round ``rnd`` and its head
        is a skip range. If the shortest head ends in round ``last``, the
        next ``last - rnd`` rounds consume only skips and leave every ring
        at instance ``last * M``, delivering nothing — so setting them
        there in one step is what consuming them a turn at a time does.
        """
        m = self.m
        nxt = self.next
        last = None
        for ring, queue in self._queues.items():
            if not queue or nxt[ring] // m != rnd:
                return False
            instance, item = queue[0]
            if not isinstance(item, SkipRange):
                return False
            end = (instance + item.count) // m
            if last is None or end < last:
                last = end
        if last <= rnd:
            return False
        target = last * m
        total = 0
        for ring, queue in self._queues.items():
            instance, item = queue[0]
            if instance + item.count == target:
                queue.popleft()
            take = target - nxt[ring]
            nxt[ring] = target
            self.queue_gauges[ring].value -= take
            total += take
        self.skipped_instances.value += total
        self.consumed_instances.value += total
        self.buffered_instances.value -= total
        return True

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple:
        """The merge state for a checkpoint: (next instance per ring, each
        ring's buffered entries, shared: they are never changed).

        A ring learner's input position is the end of its ring's queue
        (:func:`stream_ends`), past everything buffered here, so a restore
        cannot replay the buffered items: they are part of the checkpoint.
        """
        return dict(self.next), {ring: tuple(queue) for ring, queue in self._queues.items()}

    def restore(self, state: tuple) -> None:
        """Rewind to a checkpointed state, buffered items included.

        The owning learner rolls its ring learners back to the queues'
        ends, so ``push`` resumes right after what they hold. A ring joined
        since the checkpoint goes on from its stream's end, empty.
        """
        positions, queues = state
        buffered = 0
        for ring in self.rings:
            if ring in positions:
                self.next[ring] = positions[ring]
                self._queues[ring] = deque(queues[ring])
            else:
                self.next[ring] = _end(self._queues[ring], self.next[ring])
                self._queues[ring] = deque()
            depth = self.queue_depth(ring)
            self.queue_gauges[ring].value = depth
            buffered += depth
        self.buffered_instances.value = buffered

    # ------------------------------------------------------------------
    # Reconfiguration
    # ------------------------------------------------------------------
    def join(self, ring_id: int, instance: int) -> None:
        """Merge ``ring_id`` from ``instance`` on (a reconfiguration cut).

        The merge's place is the largest key it has consumed — in
        ``on_deliver``, the key of the cut in hand; join before any
        ``leave`` of the same cut, so the cut's ring still counts. The
        ring's instances with a key at or below the place have been
        passed: its place is the first instance after them. When
        ``instance`` is ahead of it, the gap is one skip range, consumed at
        the ring's turns; when it is behind, the ring's key is the
        smallest, so its instances up to the place are consumed first —
        where a learner that had the ring all along released the values it
        held for the move.
        """
        if ring_id in self.next:
            raise ValueError(f"ring {ring_id} is merged already")
        m = self.m
        rnd, last = max(((position - 1) // m, ring) for ring, position in self.next.items())
        place = max(0, (rnd + (ring_id < last)) * m)
        gap = max(0, instance - place)
        self.next[ring_id] = instance - gap
        self._queues[ring_id] = deque([(place, SkipRange(gap))] if gap else ())
        self.rings = sorted(self.next)
        self.queue_gauges[ring_id] = self.metrics.gauge("merge_queue_depth", ring=ring_id)
        self.queue_gauges[ring_id].value = gap
        self.buffered_instances.value += gap

    def leave(self, ring_id: int) -> None:
        """Stop merging ``ring_id``; what it has buffered is dropped (it
        belongs to groups this learner no longer receives)."""
        self.buffered_instances.value -= self.queue_depth(ring_id)
        self.queue_gauges[ring_id].value = 0
        del self.next[ring_id], self._queues[ring_id]
        self.rings = sorted(self.next)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def queue_depth(self, ring_id: int) -> int:
        """Buffered logical instances for one ring."""
        return _end(self._queues[ring_id], self.next[ring_id]) - self.next[ring_id]


def stream_ends(state: tuple) -> dict[int, int]:
    """Per ring of a merge snapshot, the instance after the last one pushed:
    where that ring's learner goes on."""
    positions, queues = state
    return {ring: _end(queues[ring], position) for ring, position in positions.items()}


def _end(entries, position: int) -> int:
    if not entries:
        return position
    instance, item = entries[-1]
    return instance + item.instance_count
