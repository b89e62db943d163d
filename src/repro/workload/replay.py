"""Trace recording and replay.

The paper's experiments use synthetic rate schedules; real deployments
are evaluated against recorded traffic. :class:`TraceRecorder` captures a
workload as ``(time, group, size)`` tuples — e.g. by hooking a proposer —
and :class:`TraceReplayer` re-injects a trace into any deployment, with
optional time scaling. Traces round-trip through a simple text format so
they can be checked into a repository.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable, Iterable

from ..metrics import Counter
from ..sim.process import Process
from ..sim.simulator import Simulator

__all__ = ["TraceRecord", "TraceRecorder", "TraceReplayer", "load_trace", "dump_trace"]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One recorded multicast."""

    time: float
    group: int
    size: int


class TraceRecorder:
    """Accumulates a workload trace.

    Hook it wherever messages enter the system::

        recorder = TraceRecorder(sim)
        ...
        recorder.record(group, size)   # inside the send path
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.records: list[TraceRecord] = []

    def record(self, group: int, size: int) -> None:
        """Append one multicast at the current simulated time."""
        self.records.append(TraceRecord(time=self.sim.now, group=group, size=size))

    def wrap(self, send_fn: Callable[[int, object, int], object]):
        """Return a proposer-compatible multicast that also records."""

        def recording_multicast(group: int, payload: object, size: int):
            self.record(group, size)
            return send_fn(group, payload, size)

        return recording_multicast


class TraceReplayer(Process):
    """Replays a trace into a deployment.

    Parameters
    ----------
    send_fn:
        ``(group, payload, size)`` callable — typically
        ``proposer.multicast``.
    time_scale:
        2.0 replays at half speed, 0.5 at double speed.
    """

    def __init__(
        self,
        sim: Simulator,
        records: Iterable[TraceRecord],
        send_fn: Callable[[int, object, int], object],
        time_scale: float = 1.0,
        name: str = "replayer",
    ) -> None:
        super().__init__(sim, name)
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.records = sorted(records, key=lambda r: r.time)
        self.send_fn = send_fn
        self.time_scale = time_scale
        self.sent = Counter("replayed")

    def start(self) -> "TraceReplayer":
        """Schedule every record relative to 'now'; returns self."""
        if not self.records:
            return self
        base = self.records[0].time
        for i, record in enumerate(self.records):
            delay = (record.time - base) * self.time_scale
            self.call_later(delay, self._fire, i)
        return self

    def _fire(self, index: int) -> None:
        record = self.records[index]
        self.send_fn(record.group, f"replay-{index}", record.size)
        self.sent.value += 1


# ---------------------------------------------------------------------------
# Text round-trip: one "time group size" line per record.
# ---------------------------------------------------------------------------
def dump_trace(records: Iterable[TraceRecord], fh: io.TextIOBase) -> None:
    """Write records as whitespace-separated text lines."""
    for record in records:
        fh.write(f"{record.time:.9f} {record.group} {record.size}\n")


def load_trace(fh: io.TextIOBase) -> list[TraceRecord]:
    """Parse records written by :func:`dump_trace` (blank lines, '#' ok)."""
    records = []
    for line in fh:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        time_s, group_s, size_s = line.split()
        records.append(TraceRecord(time=float(time_s), group=int(group_s), size=int(size_s)))
    return records
