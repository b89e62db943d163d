"""Value store: the ID -> client-values map kept by acceptors and learners.

Ring Paxos executes consensus on value IDs; the real values travel once in
the Phase 2A ip-multicast and are remembered here. The additional acceptor
safety check of Section III-B — "to accept a Phase 2 message, the acceptor
must know the client value associated with the ID" — is a lookup in this
store. Entries are garbage-collected once their instance is decided and
delivered (learners) or once a horizon of decided instances passes
(acceptors).
"""

from __future__ import annotations

from collections import deque

from .messages import DataBatch, RepairReply, RepairRequest, SkipRange

__all__ = ["DecidedLog", "ValueStore"]

# Bounds of one RepairReply: a reply stops after this many items, or at
# the first item past this many bytes (~a switch-friendly burst); a
# learner still missing instances it saw at its last tick asks the same
# member for the next run as soon as the reply arrives.
REPLY_MAX_ITEMS = 256
REPLY_BYTE_BUDGET = 64 * 1024


class DecidedLog:
    """A ring member's decided items by first instance, FIFO-bounded.

    ``prefix`` is the end of the gap-free decided run from instance 0:
    every instance below it is decided and was held here. A candidate's
    Phase 1 starts there, and the successor reads the history below it
    from this log. ``items()`` iterates in the order items were added.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._items: dict[int, DataBatch | SkipRange] = {}
        self.items = self._items.items
        self._order: deque[int] = deque()
        self.prefix = 0

    def add(self, instance: int, item: DataBatch | SkipRange) -> None:
        """File ``item`` as decided at ``instance`` (a repeat changes
        nothing), dropping the oldest beyond the bound; a prefix that
        reaches it extends over the items already held beyond it."""
        items = self._items
        if instance in items:
            return
        items[instance] = item
        self._order.append(instance)
        while len(self._order) > self.limit:
            items.pop(self._order.popleft(), None)
        if instance == self.prefix:
            end = instance + item.instance_count
            while (after := items.get(end)) is not None:
                end += after.instance_count
            self.prefix = end

    def reply(self, msg: RepairRequest) -> RepairReply | None:
        """The consecutive items from ``msg.instance`` (Section III-B's
        repair), ending at the first instance not held, after ``msg.count``
        items or at the bounds above; None when the first is not held, and
        the learner asks another member at a later tick."""
        items: list[DataBatch | SkipRange] = []
        budget = REPLY_BYTE_BUDGET
        cursor = msg.instance
        for _ in range(min(msg.count, REPLY_MAX_ITEMS)):
            item = self._items.get(cursor)
            if item is None or budget <= 0:
                break
            items.append(item)
            budget -= item.size
            cursor += item.instance_count
        return RepairReply(msg.instance, tuple(items)) if items else None


class ValueStore:
    """Bounded map from value id to the proposed item.

    Eviction is FIFO on insertion order (value ids are assigned
    monotonically by the coordinator, so FIFO == oldest-id-first) and
    amortised O(1) — this store sits on the acceptors' hot path.

    ``get(value_id)`` (the item, or None) is the bound ``dict.get`` of the
    never-rebound map: the Section III-B lookup costs no Python frame.
    """

    def __init__(self, max_entries: int = 100_000) -> None:
        self.max_entries = max_entries
        self._items: dict[int, DataBatch | SkipRange] = {}
        self.get = self._items.get
        self._insertion_order: deque[int] = deque()
        self.stored = 0
        self.evicted = 0

    def __contains__(self, value_id: int) -> bool:
        return value_id in self._items

    def __len__(self) -> int:
        return len(self._items)

    def put(self, value_id: int, item: DataBatch | SkipRange) -> None:
        """Remember ``item`` under ``value_id`` (idempotent)."""
        if value_id not in self._items:
            self._items[value_id] = item
            self._insertion_order.append(value_id)
            self.stored += 1
            while len(self._items) > self.max_entries and self._insertion_order:
                oldest = self._insertion_order.popleft()
                if oldest in self._items:
                    del self._items[oldest]
                    self.evicted += 1

    def forget(self, value_id: int) -> None:
        """Drop ``value_id`` once its instance is decided and consumed.

        Its id leaves the insertion-order queue when eviction reaches it or
        when forgotten ids fill most of the queue (amortised O(1), C-level).
        """
        self._items.pop(value_id, None)
        if len(self._insertion_order) > 2 * len(self._items) + 64:
            self._insertion_order = deque(
                dict.fromkeys(filter(self._items.__contains__, self._insertion_order))
            )
