"""The event queue of the discrete-event simulation kernel.

The kernel is a **binary heap** (``heapq``) of ``(time, seq)``-ordered
callbacks. ``seq`` is a monotonically increasing tie-breaker so that two
events scheduled for the same instant fire in the order they were
scheduled — this is what makes simulations bit-for-bit deterministic for
a given seed.

Every entry is a plain ``(time, seq, fn, args)`` tuple, so ordering runs
as C tuple comparison and never reaches the third element (``seq`` is
unique). There is one kind of entry and no handle to it: whoever queues a
callback (``Simulator.schedule`` / ``at`` / ``post_reserved``,
``FifoServer.submit`` and ``Network.send`` / ``multicast``, which push
their tuple themselves) pays one tuple and one ``heappush``, and the
entry fires. A deadline that may be called off is a
:class:`~repro.sim.process.Timer`, whose callback checks whether it is
still wanted; nothing is ever removed from the middle of the heap or
marked dead in it, so the heap's length is the number of callbacks that
will run.
"""

from __future__ import annotations

from itertools import count

__all__ = ["EventQueue"]


class EventQueue:
    """A binary heap of scheduled callbacks and the seq counter that orders ties.

    Ordering invariant (relied on everywhere): an entry is delivered
    strictly after every entry with a smaller ``(time, seq)`` key. Pushes
    and pops are ``heapq`` calls on ``_heap`` made by the kernel and the
    resource models themselves (same package).
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        # itertools.count: one C call per ticket; Simulator aliases it as `_seq`.
        self._seq = count()

    def __len__(self) -> int:
        return len(self._heap)

    def peek_time(self) -> float | None:
        """Return the firing time of the next event, or None if empty."""
        return self._heap[0][0] if self._heap else None
