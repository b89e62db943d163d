"""Observability sessions: instrument everything created while active.

Benchmark runners build their simulators and networks internally, so the
observability layer cannot be handed references up front. An
:class:`ObsSession` instead installs creation observers
(:func:`~repro.sim.simulator.observe_simulators`,
:func:`~repro.sim.network.observe_networks`,
:func:`~repro.metrics.registry.observe_registries`) for its lifetime:
every :class:`Simulator` gets the session's probe bus, every
:class:`Network` is probe-instrumented down to its NIC/CPU/disk servers,
and every root metrics registry is collected for the final snapshot. On
exit each simulator gets a :class:`SimProfiler` for the summary's lifetime
busy rows — built that late because a profiler subscribes to
``server.busy``, and a session that streams no such events should not pay
one per submission. With no session active, none of those hooks exist and
simulations run exactly as before.

Typical use (also what ``python -m repro ... --emit-metrics`` does)::

    with ObsSession(emit_path="trace.jsonl") as session:
        run_single_ring_point(700, durable=False)
    print(session.profile_table())          # who saturated?

"""

from __future__ import annotations

import io
import json

from ..metrics.registry import MetricsRegistry, observe_registries
from ..sim.network import Network, observe_networks
from ..sim.simulator import Simulator, observe_simulators
from .export import JsonlTraceWriter
from .probe import ProbeBus
from .profiler import ProfileRow, SimProfiler

__all__ = ["ObsSession"]


class ObsSession:
    """Attach probes, profilers and (optionally) a JSONL trace to a run.

    Parameters
    ----------
    emit_path:
        When given, a JSONL trace is written there on exit: a ``meta``
        record, per-simulator ``profile`` rows, and a ``metric`` snapshot
        of every registry created during the session. Probe events of the
        kinds in ``probe_kinds`` are streamed as they happen.
    probe_kinds:
        Probe event kinds to stream into the trace (e.g. ``("net.drop",)``).
        Defaults to none: per-event records for a saturated run are huge,
        and the profile/metric summaries carry the evaluation's signal.
    collect:
        Write the trace to an in-memory ``io.StringIO`` instead of a file.
        Sweep worker processes use this: their :meth:`records` ride back
        to the parent, which merges them via :meth:`absorb`.
    """

    def __init__(
        self,
        emit_path: str | None = None,
        probe_kinds: tuple[str, ...] = (),
        collect: bool = False,
    ) -> None:
        self.bus = ProbeBus()
        self.simulators: list[Simulator] = []
        self.networks: list[Network] = []
        self.profilers: list[SimProfiler] = []  # one per simulator, built on exit
        self.registries: list[MetricsRegistry] = []
        self._buffer = io.StringIO() if collect else None
        if self._buffer is not None:
            self.writer = JsonlTraceWriter(self._buffer)
        else:
            self.writer = JsonlTraceWriter(emit_path) if emit_path else None
        self.probe_kinds = tuple(probe_kinds)
        self._removers: list = []

    # ------------------------------------------------------------------
    # Creation hooks
    # ------------------------------------------------------------------
    def _on_simulator(self, sim: Simulator) -> None:
        sim.attach_probe(self.bus)
        self.simulators.append(sim)

    def _on_network(self, network: Network) -> None:
        network.attach_probe(self.bus)
        self.networks.append(network)
        # A network over a simulator that predates the session: profile it
        # anyway so manually built setups still get attribution.
        if network.sim not in self.simulators:
            self.simulators.append(network.sim)

    def _on_registry(self, registry: MetricsRegistry) -> None:
        self.registries.append(registry)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "ObsSession":
        self._removers = [
            observe_simulators(self._on_simulator),
            observe_networks(self._on_network),
            observe_registries(self._on_registry),
        ]
        if self.writer is not None and self.probe_kinds:
            self.writer.subscribe(self.bus, self.probe_kinds)
        return self

    def __exit__(self, *exc: object) -> None:
        for remove in self._removers:
            remove()
        self._removers.clear()
        self.profilers = [SimProfiler(sim) for sim in self.simulators]
        for network in self.networks:
            self.profilers[self.simulators.index(network.sim)].watch_network(network)
        if self.writer is not None:
            self._write_summary()
            self.writer.close()

    def _write_summary(self) -> None:
        assert self.writer is not None
        self.writer.write(
            {
                "type": "meta",
                "simulators": len(self.simulators),
                "registries": len(self.registries),
                "probe_events": self.bus.events_emitted,
            }
        )
        for index, profiler in enumerate(self.profilers):
            for row in profiler.report():
                record = row.as_record()
                record["sim"] = index
                self.writer.write(record)
        for index, registry in enumerate(self.registries):
            for row in registry.snapshot():
                record = {"type": "metric", "registry": index, **row}
                self.writer.write(record)

    # ------------------------------------------------------------------
    # Cross-process merging
    # ------------------------------------------------------------------
    def records(self) -> list[dict]:
        """The trace of a ``collect=True`` session, parsed (else empty)."""
        if self._buffer is None:
            return []
        return [json.loads(line) for line in self._buffer.getvalue().splitlines()]

    def absorb(self, records: list[dict], origin: str) -> None:
        """Merge another session's records (e.g. from a sweep worker) into
        this session's trace, tagging each with ``origin``."""
        if self.writer is None:
            return
        for record in records:
            self.writer.write({**record, "origin": origin})

    # ------------------------------------------------------------------
    # Queries (once the session has exited)
    # ------------------------------------------------------------------
    def profile_table(self) -> str:
        """The saturation table of the last profiled simulator."""
        if not self.profilers:
            return "no simulators were created during this session"
        return self.profilers[-1].table()

    def saturation_summary(self) -> list[tuple[int, ProfileRow]]:
        """Per-simulator saturated resource: ``(sim_index, top_row)``."""
        out = []
        for index, profiler in enumerate(self.profilers):
            top = profiler.saturated()
            if top is not None:
                out.append((index, top))
        return out
