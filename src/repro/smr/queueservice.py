"""A replicated FIFO queue service: a second state machine for the SMR layer.

Demonstrates that the replication machinery (ordering via atomic
multicast + deterministic execution) is independent of the service:
anything deterministic replicates. The queue supports ``enqueue(item)``,
``dequeue()``, and ``peek(n)``; replicas of the same partition stay
byte-identical because every replica dequeues the same element for the
same delivered command.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .statemachine import Command

__all__ = ["QueueService"]


class QueueService:
    """A deterministic FIFO queue usable as a replica state machine."""

    def __init__(self, capacity: int | None = None) -> None:
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self.enqueued = 0
        self.dequeued = 0
        self.rejected = 0

    def __len__(self) -> int:
        return len(self._items)

    # ------------------------------------------------------------------
    # StateMachine interface
    # ------------------------------------------------------------------
    def apply(self, command: Command):
        """Execute one command; returns the operation's result."""
        if command.op == "enqueue":
            return self.enqueue(command.args[0])
        if command.op == "dequeue":
            return self.dequeue()
        if command.op == "peek":
            n = command.args[0] if command.args else 1
            return self.peek(n)
        raise ValueError(f"unknown operation {command.op!r}")

    def execution_cost(self, command: Command) -> float:
        return 0.0

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def enqueue(self, item: Any) -> bool:
        """Append ``item``; False if the queue is at capacity."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            self.rejected += 1
            return False
        self._items.append(item)
        self.enqueued += 1
        return True

    def dequeue(self) -> Any | None:
        """Pop and return the head item, or None when empty."""
        if not self._items:
            return None
        self.dequeued += 1
        return self._items.popleft()

    def peek(self, n: int = 1) -> list[Any]:
        """The first ``n`` items without removing them."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return [self._items[i] for i in range(min(n, len(self._items)))]
