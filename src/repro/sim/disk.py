"""Disk model for Recoverable (durable) acceptors.

The paper's Recoverable Ring Paxos writes every consensus decision to the
acceptors' disks using *buffered* writes (Section VI-A): the write syscall
returns quickly while the OS drains the buffer at the disk's sustained
bandwidth. Throughput is therefore bounded by the drain rate (~400 Mbps
per acceptor in Figure 1) even though individual write latency stays low —
until the buffer fills, at which point writes block on free space.

:class:`Disk` reproduces exactly that: a FIFO drain at ``bandwidth``
bytes/second fed through a bounded buffer. ``write(nbytes)`` completes (the
"ack") when the data has entered the buffer, which is immediate while there
is space and delayed by the drain otherwise.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable

from ..errors import SimulationError
from .server import FifoServer
from .simulator import Simulator

__all__ = ["Disk"]


class Disk:
    """Bandwidth-limited disk with a bounded write buffer.

    Parameters
    ----------
    bandwidth:
        Sustained drain rate in bytes per simulated second.
    buffer_bytes:
        Capacity of the OS write buffer. Writes that find the buffer full
        are admitted only once enough earlier data has drained.
    write_latency:
        Fixed per-write overhead (syscall + controller), charged on top of
        any wait for buffer space.
    """

    __slots__ = (
        "sim", "bandwidth", "buffer_bytes", "write_latency", "name",
        "bytes_written", "writes", "_drain",
    )

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        buffer_bytes: int = 4 * 1024 * 1024,
        write_latency: float = 50e-6,
        name: str = "disk",
    ) -> None:
        # Each guard is written so that NaN is rejected too.
        if not bandwidth > 0:
            raise ValueError("disk bandwidth must be positive")
        if not buffer_bytes > 0:
            raise ValueError("buffer size must be positive")
        if not write_latency >= 0:
            raise ValueError("write latency must be non-negative")
        self.sim = sim
        self.bandwidth = bandwidth
        self.buffer_bytes = buffer_bytes
        self.write_latency = write_latency
        self.name = name
        self.bytes_written = 0
        self.writes = 0
        self._drain = FifoServer(sim, rate=bandwidth, name=f"{name}.drain")

    def write(self, nbytes: int, fn: Callable[..., None] | None = None, args: tuple = ()) -> float:
        """Buffered write of ``nbytes``; returns the ack (buffered) time.

        If ``fn`` is given, ``fn(*args)`` runs at the ack time; ``args`` is
        one tuple, as :meth:`FifoServer.submit <repro.sim.server.FifoServer.submit>`
        takes it.

        The ack time is when the caller may proceed (data safely in the
        buffer). The data itself reaches the platter when the drain queue
        flushes it; durability in this model means "accepted by the storage
        stack", matching the paper's buffered-write setup which assumes a
        majority of acceptors stays operational.
        """
        if not nbytes >= 0:  # written so that NaN is rejected too
            raise SimulationError("cannot write a negative number of bytes")
        drained_at = self._drain.submit(nbytes)
        # The buffer holds whatever has been admitted but not yet drained.
        # A write is admitted when the buffer has room for it, i.e. when
        # everything that must drain to make room has drained:
        backlog_after = drained_at - self.sim.now
        overflow_bytes = backlog_after * self.bandwidth - self.buffer_bytes
        wait_for_space = max(0.0, overflow_bytes / self.bandwidth)
        ack_time = self.sim.now + wait_for_space + self.write_latency
        self.bytes_written += nbytes
        self.writes += 1
        if fn is not None:
            # Simulator.at inlined, ``args`` queued as it came (no unpacking
            # to re-pack); ack_time >= now, so it needs no guard.
            sim = self.sim
            heappush(sim._queue._heap, (ack_time, next(sim._seq), fn, args))
        return ack_time

    @property
    def backlog_bytes(self) -> float:
        """Bytes admitted but not yet drained to the platter."""
        return self._drain.backlog_time * self.bandwidth

    def attach_probe(self, bus) -> None:
        """Publish the drain's busy intervals (``server.busy``) to ``bus``."""
        self._drain.probe = bus

    @property
    def drain(self) -> FifoServer:
        """The underlying drain server (for profiling/busy accounting)."""
        return self._drain
