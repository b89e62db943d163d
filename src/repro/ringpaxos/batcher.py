"""Client-value batching at the coordinator.

A consensus instance is triggered when a batch fills up (8 KB by default)
or a timeout fires (paper, footnote 1). The batcher owns that policy; the
coordinator supplies the flush action.
"""

from __future__ import annotations

from typing import Callable

from ..sim.process import Timer
from ..sim.simulator import Simulator
from .messages import ClientValue

__all__ = ["Batcher"]


class Batcher:
    """Accumulates :class:`ClientValue` until size or time triggers a flush.

    ``flush_fn`` receives the list of batched values. A value larger than
    ``batch_size`` flushes whatever is pending and then goes out alone —
    batches never split a client value.
    """

    def __init__(
        self,
        sim: Simulator,
        batch_size: int,
        batch_timeout: float,
        flush_fn: Callable[[list[ClientValue]], None],
    ) -> None:
        self.sim = sim
        self.batch_size = batch_size
        self.batch_timeout = batch_timeout
        self.flush_fn = flush_fn
        self.flushes = 0
        self.values_batched = 0
        self._pending: list[ClientValue] = []
        self._pending_bytes = 0
        self._timer = Timer(sim, batch_timeout, self._on_timeout)

    @property
    def pending_count(self) -> int:
        """Values waiting in the current batch."""
        return len(self._pending)

    @property
    def pending_bytes(self) -> int:
        """Bytes waiting in the current batch."""
        return self._pending_bytes

    def add(self, value: ClientValue) -> None:
        """Add one value; may trigger an immediate flush."""
        if value.size >= self.batch_size:
            # Oversized value: flush what's pending, then ship it alone.
            if self._pending:  # nothing pending: the timer is disarmed too
                self.flush()
            self.flush_fn([value])
            self.flushes += 1
            self.values_batched += 1
            return
        self._pending.append(value)
        self._pending_bytes += value.size
        self.values_batched += 1
        if self._pending_bytes >= self.batch_size:
            self.flush()
        elif self._timer.deadline is None:
            self._timer.start()

    def flush(self) -> None:
        """Force out the current batch, if any."""
        self._timer.deadline = None  # stop()
        if not self._pending:
            return
        batch = self._pending
        self._pending = []
        self._pending_bytes = 0
        self.flushes += 1
        self.flush_fn(batch)

    def stop(self) -> None:
        """Disarm the timeout (used when the coordinator crashes)."""
        self._timer.stop()

    def _on_timeout(self) -> None:
        self.flush()
