"""Simulated-time profiler: which resource was busy, and which saturated.

The paper's entire evaluation argument is about which resource saturates
first — coordinator CPU (In-memory Ring Paxos, Figure 1), acceptor disks
(Recoverable), or the learner's ingress link (Figure 6). The profiler
makes that directly observable: it walks every FIFO server on the fabric
(CPUs, NIC directions, disk drains), attributes exact busy seconds to
each over a window, and renders a saturation table whose top row names
the bottleneck.

The profiler is a ``server.busy`` reader. A
:class:`~repro.sim.server.FifoServer` keeps only a busy-seconds counter,
which answers the lifetime window ``[0, now]`` for any profiler, however
late it was pointed at a network. Every other window is answered from the
busy intervals the profiler itself merged out of the ``server.busy``
probe events it saw, so watch a network (or track a server) before its
first submission; a windowed report over a server whose submissions the
profiler missed raises instead of under-counting.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass

from ..sim.network import Network
from ..sim.simulator import Simulator
from .probe import SERVER_BUSY, ProbeBus, ProbeEvent

__all__ = ["ProfileRow", "SimProfiler"]

# Components listed by :meth:`SimProfiler.table`, busiest first.
TABLE_ROWS = 20


@dataclass(frozen=True, slots=True)
class ProfileRow:
    """Busy-time attribution for one component over the profiled window."""

    component: str
    kind: str  # "cpu" | "nic.tx" | "nic.rx" | "disk" | "server"
    busy_s: float
    utilization: float  # fraction of the window the component was busy

    def as_record(self) -> dict:
        """Flat dict form for the JSONL exporter."""
        return {"type": "profile", "component": self.component, "kind": self.kind,
                "busy_s": self.busy_s, "utilization": self.utilization}


class _BusyHistory:
    """One server's busy intervals, merged: disjoint, sorted, never trimmed.

    Two parallel ``array('d')`` (starts / ends) rather than a list of
    tuples: 16 bytes per interval, and :meth:`between` bisects the starts
    directly. ``jobs`` counts the submissions seen, to be compared with the
    server's own ``jobs_served``.
    """

    __slots__ = ("starts", "ends", "jobs")

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.jobs = 0

    def add(self, start: float, finish: float) -> None:
        ends = self.ends
        self.jobs += 1
        if ends and ends[-1] >= start:
            ends[-1] = finish  # the server never went idle: same interval
        else:
            self.starts.append(start)
            ends.append(finish)

    def between(self, start: float, end: float) -> float:
        """Exact busy seconds within ``[start, end]``."""
        if end <= start:
            return 0.0
        starts = self.starts
        ends = self.ends
        # Start at the last interval opening at or before ``start``: the
        # only earlier one that can reach into the window.
        i = max(bisect_right(starts, start) - 1, 0)
        busy = 0.0
        n = len(starts)
        while i < n and starts[i] < end:
            if ends[i] > start:
                busy += min(ends[i], end) - max(starts[i], start)
            i += 1
        return busy


class SimProfiler:
    """Attributes simulated busy time to the components of one simulator.

    Components are discovered from watched networks at report time, so a
    profiler attached at simulator creation also covers nodes added later.
    Extra servers (e.g. a standalone disk) can be tracked explicitly.
    Busy intervals are keyed by server name, so the servers behind one
    profiler need distinct names.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._networks: list[Network] = []
        self._extra: dict[str, tuple[str, object]] = {}
        self._buses: list[ProbeBus] = []
        self._history: defaultdict[str, _BusyHistory] = defaultdict(_BusyHistory)

    def watch_network(self, network: Network) -> None:
        """Include every node/NIC/disk of ``network`` in future reports.

        Subscribes to the network's probe bus, attaching a private one if
        it has none.
        """
        if network in self._networks:
            return
        self._networks.append(network)
        if network.probe is None:
            network.attach_probe(ProbeBus())
        self._listen(network.probe)

    def track(self, component: str, server, kind: str = "server") -> None:
        """Track an arbitrary FIFO server under ``component``."""
        self._extra[component] = (kind, server)
        if server.probe is None:
            server.probe = ProbeBus()
        self._listen(server.probe)

    def _listen(self, bus: ProbeBus) -> None:
        if bus not in self._buses:
            self._buses.append(bus)
            bus.subscribe(self._on_busy, kind=SERVER_BUSY)

    def _on_busy(self, event: ProbeEvent) -> None:
        self._history[event.source].add(event.data["start"], event.data["finish"])

    def _busy_between(self, server, start: float, end: float) -> float:
        history = self._history[server.name]
        if history.jobs != server.jobs_served:
            raise RuntimeError(
                f"profiler did not observe every submission to {server.name!r}: "
                "only the lifetime window [0, now] can be reported"
            )
        return history.between(start, end)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _components(self):
        for network in self._networks:
            for name, node in network.nodes.items():
                yield f"{name}.cpu", "cpu", node.cpu
                if node.disk is not None:
                    yield f"{name}.disk", "disk", node.disk.drain
                nic = network.nics[name]
                yield f"{name}.nic.tx", "nic.tx", nic.egress
                yield f"{name}.nic.rx", "nic.rx", nic.ingress
        for component, (kind, server) in self._extra.items():
            yield component, kind, server

    def report(self, start: float = 0.0, end: float | None = None) -> list[ProfileRow]:
        """Busy-time rows over ``[start, end]``, most-utilized first.

        ``end`` defaults to the simulator's current clock. Components that
        never did any work are omitted.
        """
        now = self.sim.now
        if end is None:
            end = now
        span = max(end - start, 0.0)
        rows = []
        for component, kind, server in self._components():
            if start == 0.0 and end >= now:
                # Needs no history: busy so far, plus the accepted work
                # the server will be doing from now to ``end``.
                busy = server.busy_time() + min(server.backlog_time, end - now)
            else:
                busy = self._busy_between(server, start, end)
            if busy <= 0.0:
                continue
            rows.append(
                ProfileRow(
                    component=component,
                    kind=kind,
                    busy_s=busy,
                    utilization=(busy / span if span > 0 else 0.0),
                )
            )
        rows.sort(key=lambda r: (-r.utilization, r.component))
        return rows

    def utilizations(self, start: float = 0.0, end: float | None = None) -> dict[str, float]:
        """Measured utilization per component, as a plain dict.

        The export the repo benchmark's recorder consumes: keys are the
        profiler's component names (``<node>.cpu``, ``<node>.nic.tx``,
        ``<node>.disk``, ...), values are busy fractions of the window.
        Idle components are omitted, like :meth:`report`.
        """
        return {row.component: row.utilization for row in self.report(start, end)}

    def saturated(self) -> ProfileRow | None:
        """The most-utilized component so far (None if all idle)."""
        rows = self.report()
        return rows[0] if rows else None

    def table(self) -> str:
        """Readable saturation table of the busiest ``TABLE_ROWS``
        components; the verdict line names the bottleneck."""
        rows = self.report()
        lines = ["simulated-time profile (busiest first)"]
        lines.append(f"{'component':<28s} {'kind':<8s} {'busy s':>10s} {'util %':>8s}")
        for row in rows[:TABLE_ROWS]:
            lines.append(
                f"{row.component:<28s} {row.kind:<8s} "
                f"{row.busy_s:>10.4f} {row.utilization * 100:>8.1f}"
            )
        if rows:
            top_row = rows[0]
            lines.append(
                f"saturated resource: {top_row.component} "
                f"({top_row.utilization * 100:.1f}% busy)"
            )
        else:
            lines.append("saturated resource: none (all components idle)")
        return "\n".join(lines)
