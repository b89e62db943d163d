"""Batched completion delivery for the resource models.

Every FIFO resource in the simulator (NIC queue, CPU, disk drain) hands
out completion times that are **non-decreasing**: jobs finish in the
order they were accepted. The kernel does not need one queue entry
per completion to honour that — it needs one entry for the *earliest*
pending completion, and the rest can ride behind it.

:class:`CompletionStrip` exploits exactly this. Completions are appended
to a per-resource FIFO; only the head is *armed* as a real kernel event.
When the head fires, the sweep keeps draining the FIFO inline — clock
forwarded, probe mirrored, execution counter bumped — for as long as
each next completion still precedes whatever the kernel would fire next
(checked against the queue's exact ``(time, seq)`` frontier via
``peek_entry``) and stays inside an active ``run(until=...)`` window.
The first completion that doesn't, re-arms the strip and yields.

Determinism is bit-exact with one-event-per-completion scheduling:

* Each completion reserves its kernel sequence number at submit time —
  the same program point where ``post_at`` used to draw it — so the
  global ``(time, seq)`` order of callbacks is unchanged.
* A swept completion fires only when its ``(time, seq)`` key precedes
  the kernel's next entry, which is exactly when the kernel itself
  would have fired it.

What changes is the *cost*: a burst of same-resource completions (a
multicast fan-in serializing at one learner's ingress NIC, a batch of
disk acks) is one queue push and one kernel dispatch instead of one
per message leg. ``Simulator.pending_events`` counts the armed head,
not the queued tail, and a ``max_events`` budget counts the dispatch,
not the swept riders (which still count in ``events_executed``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from .simulator import Simulator

__all__ = ["CompletionStrip"]


class CompletionStrip:
    """A FIFO of pending completions backed by one armed kernel event.

    The owning resource is expected to append completion times in
    non-decreasing order (``seq`` reservation keeps ties ordered by
    submission, matching the kernel's tie-breaker); stragglers that
    arrive out of order are scheduled as plain kernel events instead of
    joining the batch.
    """

    __slots__ = ("sim", "_pending", "_armed")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        # (time, seq, fn, args) in arrival order == (time, seq) order.
        self._pending: deque[tuple[float, int, Callable[..., None], tuple]] = deque()
        self._armed = False

    def __len__(self) -> int:
        return len(self._pending)

    def post_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at ``time``; not cancellable.

        Same ordering semantics as ``Simulator.post_at`` (a kernel seq is
        reserved here and now), but only the strip's head occupies the
        event queue. An entry arriving out of FIFO order — possible when a
        fault schedule changes a delay parameter mid-run, e.g. the
        propagation component of a NIC's switched-leg times — skips the
        strip and lands on the event queue as its own event, which is
        bit-exact with unbatched scheduling.
        """
        sim = self.sim
        seq = next(sim._seq)
        pending = self._pending
        if pending and time < pending[-1][0]:
            sim._queue._push_entry((time, seq, fn, args, None))
            return
        pending.append((time, seq, fn, args))
        if not self._armed:
            self._armed = True
            sim._queue._push_entry((time, seq, self._sweep, (), None))

    def _sweep(self) -> None:
        """Kernel callback: fire the head, then drain what's due inline.

        ``_armed`` stays True for the whole sweep — a completion callback
        that submits more work to the same resource just appends to the
        FIFO; the tail is either swept below or re-armed at exit.
        """
        sim = self.sim
        pending = self._pending
        # The head IS the kernel event that just fired (same time/seq):
        # the dispatch loop has already advanced the clock, emitted the
        # probe record, and will count it.
        _time, _seq, fn, args = pending.popleft()
        if args:
            fn(*args)
        else:
            fn()
        queue = sim._queue
        while pending:
            head = pending[0]
            time = head[0]
            if sim._running:
                until = sim._run_until
                if until is None or time <= until:
                    nxt = queue.peek_entry()
                    if nxt is None or nxt[0] > time or (
                        nxt[0] == time and nxt[1] > head[1]
                    ):
                        # Nothing in the kernel precedes this completion:
                        # fire it inline, exactly as the kernel would.
                        pending.popleft()
                        sim.now = time
                        sim._events_executed += 1
                        probe = sim._probe
                        if probe is not None and probe.wants("sim.event"):
                            fn = head[2]
                            probe.emit(
                                "sim.event",
                                time,
                                getattr(fn, "__qualname__", None) or repr(fn),
                                seq=head[1],
                            )
                        args = head[3]
                        if args:
                            head[2](*args)
                        else:
                            head[2]()
                        continue
            # An earlier kernel event, the end of the run window, or
            # single-stepping: hand control back, keeping our slot.
            queue._push_entry((time, head[1], self._sweep, (), None))
            return
        self._armed = False
