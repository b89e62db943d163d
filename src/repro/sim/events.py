"""Event primitives for the discrete-event simulation kernel.

The kernel is a **binary heap** (``heapq``) of ``(time, seq)``-ordered
callbacks. ``seq`` is a monotonically increasing tie-breaker so that two
events scheduled for the same instant fire in the order they were
scheduled — this is what makes simulations bit-for-bit deterministic for
a given seed.

Every entry is a plain ``(time, seq, fn, args, event-or-None)`` tuple, so
ordering runs as C tuple comparison and never reaches the third element
(``seq`` is unique). The last slot is ``None`` on the **fast path**
(``Simulator.post`` / ``post_at`` / ``post_reserved`` and
``FifoServer.submit``, which push their tuple themselves): message
arrivals, queue completions, ``Timer`` wake-ups and the coordinator's
retry deadlines pay one tuple and one ``heappush``. Only callers that
need a handle to cancel (``PeriodicTimer``, ``Process.call_later``,
fault schedules, the basic ``paxos`` roles) go through
:meth:`EventQueue.push`, which allocates the :class:`Event` that
:meth:`EventQueue.cancel` needs.

Cancellation is lazy: a cancelled entry stays in the heap until it
surfaces at the head, where the next look (``peek_entry``, ``pop_entry``,
``Simulator.run``) discards it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable

__all__ = ["Event", "EventQueue"]


class Event:
    """A scheduled callback that can still be cancelled.

    Use :meth:`cancel` to neutralise an event that is already queued —
    cancelled events are skipped (and dropped lazily) by
    :class:`EventQueue`. Events never participate in ordering themselves;
    the queue orders its ``(time, seq)`` keys.

    A plain ``__slots__`` class rather than a dataclass: one is allocated
    per ``schedule``/``at`` call, and the hand-written ``__init__`` is
    measurably cheaper.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "consumed")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., None],
        args: tuple[Any, ...] = (),
        cancelled: bool = False,
        consumed: bool = False,  # set by EventQueue.pop(); guards late cancels
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = cancelled
        self.consumed = consumed

    def cancel(self) -> None:
        """Mark this event so it will not fire when popped."""
        self.cancelled = True

    def fire(self) -> None:
        """Invoke the callback (caller must check :attr:`cancelled`)."""
        self.fn(*self.args)

    def __repr__(self) -> str:
        flags = "".join(
            flag for flag, on in ((" cancelled", self.cancelled), (" consumed", self.consumed)) if on
        )
        return f"<Event t={self.time!r} seq={self.seq}{flags}>"


class EventQueue:
    """A binary heap of scheduled callbacks with lazy cancellation.

    Ordering invariant (relied on everywhere): an entry is delivered
    strictly after every entry with a smaller ``(time, seq)`` key.
    """

    __slots__ = ("_heap", "_seq", "_cancelled")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        # itertools.count: one C call per ticket; Simulator aliases it as `_seq`.
        self._seq = count()
        self._cancelled = 0  # cancelled entries still buried in the heap

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def push(self, time: float, fn: Callable[..., None], args: tuple[Any, ...] = ()) -> Event:
        """Insert a cancellable callback firing at ``time``; returns its Event."""
        seq = next(self._seq)
        event = Event(time=time, seq=seq, fn=fn, args=args)
        heappush(self._heap, (time, seq, fn, args, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel ``event`` if it has not fired yet (idempotent).

        Cancelling an event that was already popped (fired) is a no-op:
        a popped event no longer counts towards ``len()``, so counting it
        again would drive the live count negative.
        """
        if not event.cancelled and not event.consumed:
            event.cancel()
            self._cancelled += 1

    def peek_entry(self) -> tuple | None:
        """The next live entry without consuming it, or None if empty.

        Cancelled entries at the head are discarded.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[4]
            if event is None or not event.cancelled:
                return entry
            heappop(heap)
            self._cancelled -= 1
        return None

    def pop_entry(self) -> tuple | None:
        """Remove and return the next live entry, or None if empty.

        The entry is ``(time, seq, fn, args, event-or-None)``; a non-None
        event is marked consumed (late cancels become no-ops).
        """
        entry = self.peek_entry()
        if entry is not None:
            heappop(self._heap)
            if entry[4] is not None:
                entry[4].consumed = True
        return entry

    def peek_time(self) -> float | None:
        """Return the firing time of the next live event, or None if empty."""
        entry = self.peek_entry()
        return entry[0] if entry is not None else None

    def pop(self) -> Event | None:
        """Remove and return the next live event, or None if empty.

        Fast-path entries have no :class:`Event`, so one is materialized
        (already consumed) for the caller; hot loops use :meth:`pop_entry`.
        """
        entry = self.pop_entry()
        if entry is None:
            return None
        time, seq, fn, args, event = entry
        return event or Event(time=time, seq=seq, fn=fn, args=args, consumed=True)
