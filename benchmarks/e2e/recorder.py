"""The stats rep's observer: simulated-clock metrics and exact counts.

One :class:`Recorder` watches one rep of one workload from outside.
Through the creation hooks of ``repro`` it gives every simulator the
scenario builds its own probe bus (the safety oracles keep per-simulation
state, so simulators must not share one), instruments every network down
to its NIC/CPU/disk queues, keeps a ``SimProfiler`` per simulator and
every root metrics registry, and runs the scenario under
``repro.check.oracle_watch``. After the run it reads the public counters.
Nothing here schedules a simulation event, so an observed rep executes
the same events as a bare one.

A rep is a sequence of *segments* (a leg of ``ring1_open``, a fuzz case),
each on its own simulator, announced through :meth:`Recorder.mark` just
before it runs. Latencies are attributed per segment to values multicast
inside the segment's measured window:

* ring latency — ``proposer.multicast`` to ``learner.decide`` at a ring
  learner (what one Ring Paxos instance costs);
* merge wait — ``learner.decide`` to ``learner.deliver`` of the same
  (node, ring, instance) (what the deterministic merge adds);
* delivery latency — ``proposer.multicast`` to ``learner.deliver``.

A restarted learner replays its log; only the first decide of an instance
and the first delivery of a message at a learner are counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.check import OracleViolation, oracle_watch
from repro.metrics.registry import observe_registries
from repro.obs import ProbeBus, SimProfiler
from repro.sim.network import observe_networks
from repro.sim.simulator import observe_simulators


@dataclass(slots=True)
class Segment:
    """What was seen while one simulator of the rep ran."""

    label: str
    start: float
    end: float | None  # None: the run decides (fuzz cases); set from sim.now
    sent: dict = field(default_factory=dict)  # (sender, seq, group) -> (time, size)
    decided: dict = field(default_factory=dict)  # (node, ring, instance) -> decide time
    delivered: set = field(default_factory=set)  # (learner, message)
    batch_sizes: dict = field(default_factory=dict)  # (ring, instance) -> values
    ring_latency: list = field(default_factory=list)
    ring_deliveries: int = 0  # values decided at ring learners inside the window
    # First delivery of each message at each merged learner:
    # (ring, size, sent at, decided at, delivered at).
    deliveries: list = field(default_factory=list)
    completions: int = 0  # client requests completed inside the window

    @property
    def span(self) -> float:
        return self.end - self.start

    def in_window(self, t: float) -> bool:
        return t >= self.start and (self.end is None or t < self.end)

    def delivery_latency(self) -> list[float]:
        """Multicast-to-delivery times of values multicast inside the window."""
        return [d - s for _, _, s, _, d in self.deliveries if self.in_window(s)]

    def merge_wait(self) -> list[float]:
        """Decide-to-delivery times of the same values."""
        return [d - at for _, _, s, at, d in self.deliveries if self.in_window(s)]

    def delivered_in_window(self) -> list[int]:
        """Sizes of the values delivered inside the window."""
        return [size for _, size, _, _, d in self.deliveries if self.in_window(d)]


class Recorder:
    """Observe one rep; see the module docstring."""

    def __init__(self) -> None:
        self.segments: list[Segment] = []
        self.simulators: list = []
        self.networks: list = []
        self.registries: list = []
        self.profilers: list[SimProfiler] = []
        self.oracles: list = []
        self.violation: str | None = None
        self.multicasts = 0
        self.payload_bytes = 0
        self.messages_by_type: dict[str, int] = {}
        self.applied = 0
        self.suspect_times: list[float] = []
        self.takeover_times: list[float] = []
        self._segment: Segment | None = None
        self._utilizations: list[tuple[str, float]] | None = None
        self._watch = None
        self._removers: list = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _on_simulator(self, sim) -> None:
        bus = ProbeBus()
        sim.attach_probe(bus)
        bus.subscribe(self._on_multicast, kind="proposer.multicast")
        bus.subscribe(self._on_decide, kind="learner.decide")
        bus.subscribe(self._on_deliver, kind="learner.deliver")
        bus.subscribe(self._on_complete, kind="population.complete")
        bus.subscribe(self._on_enqueue, kind="net.enqueue")
        bus.subscribe(self._on_apply, kind="replica.apply")
        bus.subscribe(self._on_suspect, kind="failover.suspect")
        bus.subscribe(self._on_takeover, kind="failover.takeover")
        self.simulators.append(sim)
        self.profilers.append(SimProfiler(sim))

    def _on_network(self, network) -> None:
        network.attach_probe(network.sim.probe)
        self.networks.append(network)
        self.profilers[self.simulators.index(network.sim)].watch_network(network)

    def __enter__(self) -> "Recorder":
        # Registered before the oracle watch, so each simulator has its
        # bus by the time the oracles subscribe to it.
        self._removers = [
            observe_simulators(self._on_simulator),
            observe_networks(self._on_network),
            observe_registries(self.registries.append),
        ]
        self._watch = oracle_watch()
        self.oracles = self._watch.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        for remove in self._removers:
            remove()
        try:
            # Runs the oracles' whole-history checks (partial order, FIFO).
            self._watch.__exit__(None, None, None)
        except OracleViolation as violation:
            self.violation = str(violation)
        if isinstance(exc, OracleViolation):
            self.violation = str(exc)
            return True
        for segment, sim in zip(self.segments, self.simulators):
            if segment.end is None:
                segment.end = sim.now
        return False

    def mark(self, label: str, start: float, end: float | None) -> None:
        """The scenario is about to run its next simulator."""
        self._segment = Segment(label, start, end)
        self.segments.append(self._segment)

    # ------------------------------------------------------------------
    # Probe subscribers
    # ------------------------------------------------------------------
    def _on_multicast(self, ev) -> None:
        data = ev.data
        self.multicasts += 1
        self.payload_bytes += data["size"]
        self._segment.sent[(data["sender"], data["seq"], data["group"])] = (ev.time, data["size"])

    def _on_decide(self, ev) -> None:
        segment = self._segment
        data = ev.data
        position = (data["node"], data["ring"], data["instance"])
        if position in segment.decided:
            return
        segment.decided[position] = ev.time
        item = data["item"]
        if item[0] != "batch":
            return
        messages = item[2]
        segment.batch_sizes[(data["ring"], data["instance"])] = len(messages)
        if segment.in_window(ev.time):
            segment.ring_deliveries += len(messages)
        for message in messages:
            sent = segment.sent.get(message)
            if sent is not None and segment.in_window(sent[0]):
                segment.ring_latency.append(ev.time - sent[0])

    def _on_deliver(self, ev) -> None:
        segment = self._segment
        data = ev.data
        message = (data["sender"], data["seq"], data["group"])
        sent = segment.sent.get(message)
        if sent is None or (ev.source, message) in segment.delivered:
            return
        segment.delivered.add((ev.source, message))
        ring = data["ring"]
        decided_at = segment.decided.get((data["node"], ring, data["instance"]), ev.time)
        segment.deliveries.append((ring, sent[1], sent[0], decided_at, ev.time))

    def _on_complete(self, ev) -> None:
        if self._segment.in_window(ev.time):
            self._segment.completions += 1

    def _on_enqueue(self, ev) -> None:
        kind = ev.data["msg"]
        self.messages_by_type[kind] = self.messages_by_type.get(kind, 0) + 1

    def _on_apply(self, ev) -> None:
        self.applied += 1

    def _on_suspect(self, ev) -> None:
        self.suspect_times.append(ev.time)

    def _on_takeover(self, ev) -> None:
        if not ev.data.get("refused"):
            self.takeover_times.append(ev.time)

    # ------------------------------------------------------------------
    # Readers (after the run)
    # ------------------------------------------------------------------
    def _metrics(self, kind: str, name: str, role: str):
        for registry in self.registries:
            for metric_kind, metric_name, labels, metric in registry.collect():
                if metric_kind == kind and metric_name == name and labels.get("role") == role:
                    yield metric

    def counter(self, name: str, role: str) -> float:
        """Sum of a labelled counter over every registry of the rep."""
        return sum(metric.value for metric in self._metrics("counter", name, role))

    def histogram(self, name: str, role: str):
        """The labelled latency histogram with the most samples, or None."""
        return max(self._metrics("histogram", name, role), key=lambda h: h.count, default=None)

    def events_executed(self) -> int:
        return sum(sim.events_executed for sim in self.simulators)

    def probe_events(self) -> int:
        return sum(sim.probe.events_emitted for sim in self.simulators)

    def events_checked(self) -> int:
        return sum(oracles.events_checked for oracles in self.oracles)

    def nic_totals(self) -> tuple[int, int, int]:
        """(messages sent, bytes sent, receiver legs dropped) over all NICs."""
        messages = sent = dropped = 0
        for network in self.networks:
            dropped += network.messages_dropped
            for nic in network.nics.values():
                messages += nic.messages_sent
                sent += nic.bytes_sent
        return messages, sent, dropped

    def server_jobs(self) -> int:
        """Jobs accepted by every CPU, disk and NIC queue."""
        jobs = 0
        for network in self.networks:
            for name, node in network.nodes.items():
                nic = network.nics[name]
                jobs += node.cpu.jobs_served + nic.egress.jobs_served + nic.ingress.jobs_served
                if node.disk is not None:
                    jobs += node.disk.drain.jobs_served
        return jobs

    def utilization(self, role_mark: str, kind: str) -> float:
        """Busiest ``kind`` (cpu, disk, nic.tx, nic.rx) among nodes whose name
        contains ``role_mark``, over each segment's measured window."""
        if self._utilizations is None:
            self._utilizations = [
                item
                for segment, profiler in zip(self.segments, self.profilers)
                for item in profiler.utilizations(segment.start, segment.end).items()
            ]
        suffix = "." + kind
        return max(
            (util for component, util in self._utilizations
             if component.endswith(suffix) and role_mark in component[: -len(suffix)]),
            default=0.0,
        )
