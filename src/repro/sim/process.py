"""Actor and timer conveniences built on the simulation kernel.

Protocol roles (coordinators, acceptors, learners, clients) are written as
event-driven actors: subclasses of :class:`Process` that react to message
and timer callbacks. :class:`Timer` is the restartable deadline that
protocol tasks (batch timeouts, decision flushes, heartbeats, failure
detection) all need — in the normal case it is restarted or stopped long
before it fires, so restarting and stopping are a few attribute writes;
:class:`PeriodicTimer` is the drift-free tick (skip-interval sampling), a
:class:`Timer` that re-arms itself from its own callback.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import SimulationError
from .simulator import Simulator

__all__ = ["Process", "Timer", "PeriodicTimer"]


class Process:
    """Base class for simulated actors.

    A process has a reference to the simulator and a name used in traces
    and metrics. It offers ``call_later`` sugar over ``sim.schedule``.
    Crash semantics: once :meth:`crash` is called, scheduled callbacks
    wrapped through ``call_later`` become no-ops; :meth:`restart` re-enables
    them. Subclasses that hold timers should override :meth:`on_crash` to
    stop them.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.crashed = False

    def call_later(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay``; suppressed if crashed."""
        self.sim.schedule(delay, self._guarded, fn, args)

    def _guarded(self, fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        if not self.crashed:
            fn(*args)

    def crash(self) -> None:
        """Crash the process: pending and future guarded callbacks no-op."""
        if not self.crashed:
            self.crashed = True
            self.on_crash()

    def restart(self) -> None:
        """Bring the process back; subclasses re-arm timers in on_restart."""
        if self.crashed:
            self.crashed = False
            self.on_restart()

    def on_crash(self) -> None:  # pragma: no cover - default is a no-op hook
        """Hook invoked when the process crashes."""

    def on_restart(self) -> None:  # pragma: no cover - default is a no-op hook
        """Hook invoked when the process restarts."""

    def __repr__(self) -> str:
        status = "crashed" if self.crashed else "up"
        return f"<{type(self).__name__} {self.name} ({status})>"


class Timer:
    """A restartable one-shot timer.

    >>> sim = Simulator()
    >>> fired = []
    >>> t = Timer(sim, 0.5, lambda: fired.append(sim.now))
    >>> t.start(); sim.run(until=1.0); fired
    [0.5]

    The callback of ``start()`` runs at exactly the ``(now + delay, seq)``
    key ``sim.schedule(delay, fn)`` would have given it, but restarting
    or stopping costs no heap traffic: the timer keeps **one** entry of
    its own queued, and an entry that surfaces before the current
    deadline re-queues itself at the key ``start()`` reserved (a stopped
    timer's entry just lapses). Such an early entry is a callback like
    any other: it counts in ``Simulator.events_executed`` and
    ``pending_events``, spends a ``run(max_events=...)`` budget, and a
    ``run()`` to exhaustion ends at its time.

    ``deadline`` is a public field: the time the timer fires at, or None
    while it is disarmed (never started, stopped, or fired). Assigning it
    None is exactly :meth:`stop`.
    """

    def __init__(self, sim: Simulator, delay: float, fn: Callable[[], None]) -> None:
        if not delay >= 0:  # written so that NaN is rejected too
            raise ValueError("delay must be non-negative")
        self.sim = sim
        self.delay = delay
        self.fn = fn
        self.deadline: float | None = None
        self._seq = -1  # kernel seq reserved by the latest start()
        # (time, seq) of the timer's own heap entry; seq None = none queued.
        self._queued_time = 0.0
        self._queued_seq: int | None = None

    def start(self, delay: float | None = None) -> None:
        """Arm the timer (restarting it if already armed)."""
        if delay is None:
            delay = self.delay
        if not delay >= 0:
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        self.start_at(self.sim.now + delay)

    def start_at(self, deadline: float) -> None:
        """Arm the timer to fire at absolute time ``deadline`` (see :meth:`start`)."""
        sim = self.sim
        if not deadline >= sim.now:
            raise SimulationError(
                f"cannot schedule at t={deadline!r}, clock is already at t={sim.now!r}"
            )
        self.deadline = deadline
        # Drawn here, where Simulator.schedule drew it, and never again for
        # this arming: every other event keeps the seq it always had.
        self._seq = seq = sim.reserve_seq()
        if self._queued_seq is None or self._queued_time > deadline:
            # Nothing queued, or only after the deadline: that entry is
            # now an orphan and will know it by its seq.
            self._queued_time = deadline
            self._queued_seq = seq
            sim.post_reserved(deadline, seq, self._wake, seq)

    def stop(self) -> None:
        """Disarm the timer if armed (idempotent): ``deadline = None``."""
        self.deadline = None

    def _wake(self, seq: int) -> None:
        if seq != self._queued_seq:
            return  # orphan, superseded by an earlier entry
        deadline = self.deadline
        if deadline is None:
            self._queued_seq = None
        elif seq == self._seq:
            self._queued_seq = None
            self.deadline = None
            self.fn()
        else:  # restarted since this entry was queued: move to the reserved key
            self._queued_time = deadline
            self._queued_seq = seq = self._seq
            self.sim.post_reserved(deadline, seq, self._wake, seq)


class PeriodicTimer:
    """A timer that re-arms itself every ``period`` until stopped.

    The callback runs at ``start_time + k * period`` for k = 1, 2, ... —
    drift-free, because each firing is scheduled from the previous ideal
    firing time rather than from "now". It is a :class:`Timer` re-armed
    from its own callback, before ``fn`` runs (where the next tick's seq
    has always been drawn), so a ``stop()`` / ``start()`` cycle reuses the
    one queued entry like any other restart.

    ``running`` is a field that :meth:`start` sets and :meth:`stop` clears.
    """

    def __init__(self, sim: Simulator, period: float, fn: Callable[[], None]) -> None:
        if not period > 0:  # written so that NaN is rejected too
            raise ValueError("period must be positive")
        self.sim = sim
        self.period = period
        self.fn = fn
        self._timer = Timer(sim, period, self._fire)
        self._next_time = 0.0
        self.running = False

    def start(self) -> None:
        """Begin firing every ``period`` seconds from now."""
        self._next_time = self.sim.now + self.period
        self._timer.start_at(self._next_time)
        self.running = True

    def stop(self) -> None:
        """Stop firing (idempotent)."""
        self._timer.deadline = None
        self.running = False

    def _fire(self) -> None:
        self._next_time += self.period
        self._timer.start_at(self._next_time)
        self.fn()
