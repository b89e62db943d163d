"""A generic FIFO work-conserving server with busy-interval accounting.

CPUs, disks and NICs in this simulator are all instances of the same
queueing abstraction: jobs arrive with a service demand, are served one at
a time in arrival order at a fixed rate, and the server records the busy
intervals so that utilization over any time window can be computed exactly.
Saturation behaviour — the latency knees and throughput ceilings that the
paper's evaluation is about — emerges from these queues rather than being
scripted.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heappush
from typing import Any, Callable

from .simulator import Simulator

__all__ = ["FifoServer"]

# Trim the interval history in batches once it grows past this many
# entries: one O(k) list deletion every few hundred submissions instead
# of a per-submission check (amortized O(1) either way, but off the
# common path).
_TRIM_THRESHOLD = 512


class FifoServer:
    """Single FIFO queue + server at a fixed service rate.

    Because simulated event handlers execute in zero simulated time, the
    queue can be represented by a single scalar: ``busy_until``, the time
    at which all currently accepted work completes. A job submitted at
    ``t`` with demand ``d`` starts at ``max(t, busy_until)`` and completes
    ``d / rate`` later.

    Busy intervals are retained (bounded by ``history_window``) so callers
    can ask "how busy were you between a and b?" — which is how coordinator
    CPU percentages in the figures are measured.
    """

    __slots__ = (
        "sim", "rate", "name", "history_window", "busy_until",
        "total_busy_time", "jobs_served", "demand_served", "probe",
        "_starts", "_ends", "_trim_at",
    )

    def __init__(
        self,
        sim: Simulator,
        rate: float,
        name: str = "server",
        history_window: float = 30.0,
    ) -> None:
        if rate <= 0:
            raise ValueError("service rate must be positive")
        self.sim = sim
        self.rate = rate
        self.name = name
        self.history_window = history_window
        self.busy_until = 0.0
        self.total_busy_time = 0.0
        self.jobs_served = 0
        self.demand_served = 0.0
        self.probe = None  # ProbeBus | None; set by the observability layer
        # Disjoint busy intervals, sorted, stored as parallel flat lists
        # (starts / ends): the submission hot path then appends or mutates
        # one float instead of allocating a tuple, and busy_between can
        # bisect the start list directly. Both lists are non-decreasing.
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._trim_at = _TRIM_THRESHOLD  # next history length to trim at

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, demand: float, fn: Callable[..., None] | None = None, *args: Any) -> float:
        """Enqueue a job with ``demand`` units of work; returns finish time.

        If ``fn`` is given it is scheduled to run at the finish time. The
        finish time is also returned so callers that only need the value
        (e.g. to chain resources) can skip the callback.
        """
        if not demand >= 0:  # written so that NaN is rejected too
            raise ValueError("demand must be non-negative")
        sim = self.sim
        now = sim.now
        busy_until = self.busy_until
        start = busy_until if busy_until > now else now
        service_time = demand / self.rate
        finish = start + service_time
        self.busy_until = finish
        self.total_busy_time += service_time
        self.jobs_served += 1
        self.demand_served += demand
        # Interval recording, inlined (this is the per-message hot path of
        # every NIC/CPU/disk): merge with the previous interval when the
        # server never went idle, trim old history only in batches.
        ends = self._ends
        if ends and ends[-1] >= start:
            ends[-1] = finish
        else:
            self._starts.append(start)
            ends.append(finish)
            if len(ends) > self._trim_at:
                self._trim(now)
        probe = self.probe
        if probe is not None and probe.wants("server.busy"):
            probe.emit(
                "server.busy", now, self.name,
                start=start, finish=finish, demand=demand,
            )
        if fn is not None:
            # Simulator.post_at inlined (this is the per-message hot path of
            # every NIC/CPU/disk); finish >= now, so it needs no guard.
            heappush(sim._queue._heap, (finish, next(sim._seq), fn, args, None))
        return finish

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backlog_time(self) -> float:
        """Seconds of queued work not yet completed (0 when idle)."""
        return max(0.0, self.busy_until - self.sim.now)

    def busy_between(self, start: float, end: float) -> float:
        """Exact busy seconds within the window ``[start, end]``.

        Includes work already accepted that extends into the future of the
        simulated clock (the server is non-preemptive and work-conserving,
        so accepted work deterministically occupies those intervals).
        """
        if end <= start:
            return 0.0
        starts = self._starts
        ends = self._ends
        # Intervals are disjoint and sorted, so bisect to the first one
        # that can overlap the window instead of scanning the whole
        # history: the one before the first interval opening after start.
        i = bisect_right(starts, start) - 1
        if i < 0:
            i = 0
        busy = 0.0
        n = len(starts)
        while i < n:
            lo = starts[i]
            if lo >= end:
                break
            hi = ends[i]
            if hi > start:
                busy += min(hi, end) - max(lo, start)
            i += 1
        return busy

    def utilization(self, window: float = 1.0) -> float:
        """Fraction of the last ``window`` seconds the server was busy."""
        if window <= 0:
            raise ValueError("window must be positive")
        end = self.sim.now
        start = max(0.0, end - window)
        if end == start:
            return 0.0
        return self.busy_between(start, end) / (end - start)

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------
    @property
    def _intervals(self) -> list[tuple[float, float]]:
        # Introspection/test view of the flat start/end lists.
        return list(zip(self._starts, self._ends))

    def _trim(self, now: float) -> None:
        # Drop intervals that ended before the history horizon in one list
        # deletion, always keeping at least the most recent interval.
        # Interval ends are non-decreasing, so bisect on them directly.
        ends = self._ends
        horizon = now - self.history_window
        cut = bisect_left(ends, horizon)
        if cut >= len(ends):
            cut = len(ends) - 1
        if cut > 0:
            del self._starts[:cut]
            del ends[:cut]
        # When everything is still inside the window (short simulations
        # never age out of a 30 s history), back off instead of re-running
        # a futile trim on every append.
        self._trim_at = max(_TRIM_THRESHOLD, 2 * len(ends))
