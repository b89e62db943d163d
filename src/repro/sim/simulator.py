"""The discrete-event simulation kernel.

A :class:`Simulator` owns a simulated clock and an event queue. Components
schedule callbacks at future simulated times; :meth:`Simulator.run` pops
events in time order, advancing the clock instantaneously between them.
There is no wall-clock anywhere in the library: simulated seconds are the
only notion of time, which is what makes throughput/latency experiments
reproducible and hardware-independent (see DESIGN.md, substitution rule).

The queue is the binary heap of ``events.py``. Every callback — timer,
message leg, resource completion — is one entry on it, and
:meth:`Simulator.run` takes one entry off it per event.
"""

from __future__ import annotations

import sys
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable

from ..errors import SimulationError
from .events import EventQueue
from .rng import RandomStreams

__all__ = ["Simulator", "observe_simulators"]

# Observers notified whenever a Simulator is constructed. The observability
# layer (``repro.obs``) uses this to attach probes/profilers to simulators
# it never gets a direct reference to (e.g. those built inside benchmark
# runners). Empty by default, so normal runs pay nothing.
_simulator_observers: list["_Registration"] = []


class _Registration:
    """One observer registration; a unique token per ``observe_*`` call.

    Registries store these instead of raw callbacks so that removal can
    key on the *registration* (identity semantics — no ``__eq__``), not
    the callback value: registering the same callback twice yields two
    independent removers, and each remover is idempotent.
    """

    __slots__ = ("callback",)

    def __init__(self, callback: Callable[..., None]) -> None:
        self.callback = callback


def _register_observer(
    registry: list[_Registration], callback: Callable[..., None]
) -> Callable[[], None]:
    """Append ``callback`` to ``registry``; return its idempotent remover."""
    registration = _Registration(callback)
    registry.append(registration)

    def remove() -> None:
        try:
            registry.remove(registration)  # identity match on the token
        except ValueError:
            pass  # already removed: removers are idempotent

    return remove


def observe_simulators(callback: Callable[["Simulator"], None]) -> Callable[[], None]:
    """Call ``callback(sim)`` for every Simulator created from now on.

    Returns a zero-argument remover that uninstalls this registration
    (and only this one: double-registering the same callback yields two
    independent removers, each safe to call more than once).
    """
    return _register_observer(_simulator_observers, callback)


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all named random streams (see :class:`RandomStreams`).

    ``probe`` is a plain field, the attached :class:`~repro.obs.ProbeBus` or
    None; :meth:`attach_probe` / :meth:`detach_probe` set it.

    Example
    -------
    >>> sim = Simulator(seed=7)
    >>> fired = []
    >>> sim.schedule(1.5, fired.append, "hello")
    >>> sim.run(until=2.0)
    >>> (sim.now, fired)
    (2.0, ['hello'])
    """

    # Fixed layout: `self.now` / `self._queue` / `self.probe` are read on
    # every simulated event, and slot access is measurably cheaper than a
    # dict lookup at that frequency.
    __slots__ = (
        "now", "random", "_queue", "_seq", "reserve_seq",
        "_events_executed", "_running", "probe",
    )

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.random = RandomStreams(seed)
        self._queue = EventQueue()
        # Alias of the queue's seq counter (never rebound): the resource
        # models reserve completion seqs through it on their hot path.
        self._seq = self._queue._seq
        # reserve_seq() -> int: draw the next seq now, to queue an entry at
        # it later with post_reserved (the two are one pair). Bound straight
        # to the counter so that reserving costs no Python frame.
        self.reserve_seq: Callable[[], int] = self._seq.__next__
        self._events_executed = 0
        self._running = False
        self.probe = None  # ProbeBus | None; None keeps the hot path bare
        if _simulator_observers:
            for registration in list(_simulator_observers):
                registration.callback(self)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_probe(self, bus) -> None:
        """Publish kernel events (``sim.event``) to ``bus``."""
        self.probe = bus

    def detach_probe(self) -> None:
        """Stop publishing kernel events."""
        self.probe = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` ``delay`` simulated seconds from now.

        Fire-and-forget: the entry cannot be taken back, and nothing is
        returned. A deadline that may be called off or moved is a
        :class:`~repro.sim.process.Timer`; a callback that may become moot
        checks that itself when it runs.
        """
        if not delay >= 0:  # written so that NaN is rejected too
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        _heappush(self._queue._heap, (self.now + delay, next(self._seq), fn, args))

    def at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated ``time`` (see :meth:`schedule`)."""
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, clock is already at t={self.now!r}"
            )
        _heappush(self._queue._heap, (time, next(self._seq), fn, args))

    def post_reserved(self, time: float, seq: int, fn: Callable[..., None], args: tuple) -> None:
        """Run ``fn(*args)`` at the key ``(time, seq)``; ``args`` is one tuple.

        ``seq`` must come from ``sim.reserve_seq()``, called at the program
        point where :meth:`schedule` would have been, and be queued at most
        once at a time; nothing checks that. This is how a restartable
        deadline keeps the exact order :meth:`schedule` would have given it
        while queueing an entry only when one is needed
        (:class:`~repro.sim.process.Timer`, the Ring Paxos coordinator's
        retry FIFO).
        """
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, clock is already at t={self.now!r}"
            )
        _heappush(self._queue._heap, (time, seq, fn, args))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events until the queue empties, ``until`` passes, or the budget.

        When ``until`` is given the clock is advanced exactly to ``until``
        on return whenever no runnable event at or before ``until``
        remains (even if the last event fired earlier, and even if an
        event budget ran out at the same moment the window drained), so
        back-to-back ``run(until=...)`` calls partition simulated time
        cleanly. When a ``max_events`` budget stops the run while events
        at or before ``until`` are still pending, the clock stays at the
        last executed event. An ``until`` behind the clock runs nothing.

        This being the hottest loop, it works on the queue's heap directly
        (same package). A ``max_events`` budget of *n* fires exactly *n*
        callbacks: every queued entry is one, the entry of a stopped or
        restarted :class:`~repro.sim.process.Timer` included — it spends
        budget, and a run to exhaustion ends at its time even though
        nothing observable happens then.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if until is not None and until != until:
            raise SimulationError("cannot run until t=nan")
        self._running = True
        executed = 0
        queue = self._queue
        heap = queue._heap
        # Absent bounds become +inf / maxsize. No past-time check: every insert
        # path rejects times behind the clock and the heap pops in sorted order.
        horizon = until if until is not None else float("inf")
        budget = max_events if max_events is not None else sys.maxsize
        try:
            while heap and heap[0][0] <= horizon and executed < budget:
                time, seq, fn, args = _heappop(heap)
                self.now = time
                executed += 1  # before dispatch: a raising callback counts
                probe = self.probe
                if probe is not None and "sim.event" in probe.subscribers:
                    name = getattr(fn, "__qualname__", None) or repr(fn)
                    probe.emit("sim.event", time, name, seq=seq)
                # Empty-args callbacks (timer pokes) take the plain CALL
                # path, not CALL_FUNCTION_EX.
                if args:
                    fn(*args)
                else:
                    fn()
            if until is not None and until > self.now:
                # The clock lands on `until` iff no runnable event at or
                # before it remains, however the loop stopped.
                next_time = queue.peek_time()
                if next_time is None or next_time > until:
                    self.now = until
        finally:
            self._events_executed += executed
            self._running = False

    @property
    def events_executed(self) -> int:
        """Total number of callbacks fired since construction (the early
        wake-ups of restarted or stopped Timers included)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of events currently queued.

        A stopped or restarted :class:`~repro.sim.process.Timer` still has
        its one entry queued, and it counts here until it surfaces.
        """
        return len(self._queue)
