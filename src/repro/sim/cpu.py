"""CPU model.

Each simulated node owns one :class:`Cpu`: a FIFO server whose rate is
expressed in "processing-seconds per second" (1.0 = one saturated core;
the paper's coordinator is effectively single-threaded on its hot path).
Protocol code charges explicit costs — per message and per byte — when it
handles traffic; the calibration constants live in ``repro.calibration``.

The CPU percentages reported in the paper's figures (e.g. the 97.6% at the
In-memory Ring Paxos knee in Figure 1) are two readings of
:meth:`Cpu.busy_time <repro.sim.server.FifoServer.busy_time>` over the
measured window.
"""

from __future__ import annotations

from typing import Callable

from .server import FifoServer
from .simulator import Simulator

__all__ = ["Cpu"]


class Cpu(FifoServer):
    """A node's processor, measured in processing-seconds of demand.

    ``execute(cost, fn, args)`` runs ``fn(*args)`` once the processor has
    spent ``cost`` seconds of compute on it, after all previously queued
    work.
    """

    __slots__ = ()

    def __init__(self, sim: Simulator, capacity: float = 1.0, name: str = "cpu") -> None:
        super().__init__(sim, rate=capacity, name=name)

    @property
    def capacity(self) -> float:
        """Processing-seconds deliverable per simulated second."""
        return self.rate

    # ``execute(cost, fn, args)``: charge ``cost`` processor-seconds, then run
    # ``fn(*args)``. Exactly FifoServer.submit, aliased at class level so the
    # per-message hot path skips a pure forwarding frame.
    execute: Callable[..., float] = FifoServer.submit
