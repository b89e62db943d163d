"""A generic FIFO work-conserving server with exact busy-time accounting.

CPUs, disks and NICs in this simulator are all instances of the same
queueing abstraction: jobs arrive with a service demand, are served one at
a time in arrival order at a fixed rate, and the server counts the seconds
it has been busy, so utilization over a window is the difference of two
readings of :meth:`FifoServer.busy_time` divided by the window.
Saturation behaviour — the latency knees and throughput ceilings that the
paper's evaluation is about — emerges from these queues rather than being
scripted.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable

from .simulator import Simulator

__all__ = ["FifoServer"]


class FifoServer:
    """Single FIFO queue + server at a fixed service rate.

    Because simulated event handlers execute in zero simulated time, the
    queue can be represented by a single scalar: ``busy_until``, the time
    at which all currently accepted work completes. A job submitted at
    ``t`` with demand ``d`` starts at ``max(t, busy_until)`` and completes
    ``d / rate`` later.

    The server keeps no history: "how busy were you between a and b?" —
    which is how coordinator CPU percentages in the figures are measured —
    is ``busy_time()`` read at ``b`` minus ``busy_time()`` read at ``a``.
    Each accepted job's interval goes out as a ``server.busy`` probe event
    for observers that need windows chosen after the run
    (:class:`~repro.obs.profiler.SimProfiler`).
    """

    __slots__ = (
        "sim", "rate", "name", "busy_until",
        "total_busy_time", "jobs_served", "demand_served", "probe",
    )

    def __init__(self, sim: Simulator, rate: float, name: str = "server") -> None:
        if not rate > 0:  # written so that NaN is rejected too
            raise ValueError("service rate must be positive")
        self.sim = sim
        self.rate = rate
        self.name = name
        self.busy_until = 0.0
        self.total_busy_time = 0.0  # service seconds accepted, backlog included
        self.jobs_served = 0
        self.demand_served = 0.0
        self.probe = None  # ProbeBus | None; set by the observability layer

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, demand: float, fn: Callable[..., None] | None = None, args: tuple = ()) -> float:
        """Enqueue a job with ``demand`` units of work; returns finish time.

        If ``fn`` is given, ``fn(*args)`` is scheduled to run at the finish
        time. ``args`` is one tuple, stored in the heap entry as it comes
        (no ``*args`` here: CPython specialises a call only when the callee
        has none). The finish time is also returned so callers that only
        need the value (e.g. to chain resources) can skip the callback.
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
        probe = self.probe
        if probe is not None and "server.busy" in probe.subscribers:
            probe.emit(
                "server.busy", now, self.name,
                start=start, finish=finish, demand=demand,
            )
        if fn is not None:
            # Simulator.at inlined (this is the per-message hot path of
            # every NIC/CPU/disk); finish >= now, so it needs no guard.
            heappush(sim._queue._heap, (finish, next(sim._seq), fn, args))
        return finish

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backlog_time(self) -> float:
        """Seconds of queued work not yet completed (0 when idle)."""
        return max(0.0, self.busy_until - self.sim.now)

    def busy_time(self) -> float:
        """Exact busy seconds in ``[0, now]``.

        ``total_busy_time`` counts every accepted job in full; a
        work-conserving FIFO is continuously busy from ``now`` to
        ``busy_until``, so the backlog is exactly the part of it that lies
        in the future.
        """
        return self.total_busy_time - self.backlog_time
