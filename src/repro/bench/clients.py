"""Client-population experiment runner (million-session flyweight tier).

:func:`run_population_point` drives the partitioned KV service with one
:class:`ClientPopulation` (aggregate arrivals, flyweight sessions, shared
gateway proposers, optional admission control). Session counts in the
millions are routine: simulation cost scales with the request *rate*.

The per-actor architecture it replaced for load generation — one
:class:`~repro.smr.client.SmrClient` plus one
:class:`~repro.workload.generator.OpenLoopGenerator` per session — is
still product API, and ``tests/property/test_population_properties.py``
holds the population to n such independent generators; the last
wall-clock comparison of the two is recorded in docs/simulation.md,
"Client populations".

Same contract as :mod:`repro.bench.runner`: pure functions of
JSON-primitive kwargs, one fresh simulator per point, addressable as
``repro.bench.clients:<name>`` specs for the parallel sweep executor.
"""

from __future__ import annotations

from ..core.admission import AdmissionPolicy
from ..core.config import MultiRingConfig
from ..core.deployment import MultiRingPaxos
from ..smr.kvstore import KeyValueStore
from ..smr.partitioning import RangePartitioner
from ..smr.replica import Replica
from ..workload.population import ClientPopulation, SessionMix
from ..workload.rates import ConstantRate
from .runner import PointResult, _measure

__all__ = ["run_population_point"]

# Commands carry 64 bytes of header (repro.smr.statemachine.Command.size)
# and no padding in these experiments.
_COMMAND_SIZE = 64
_N_PARTITIONS = 2
_MULTI_PARTITION_FRACTION = 0.2
_REQUEST_TIMEOUT = 0.25


def run_population_point(
    n_sessions: int,
    rate: float,
    zipf_s: float = 0.0,
    duration: float = 1.0,
    warmup: float = 0.2,
    admission_inflight: int = 0,
    admission_queue: int = 0,
    crash_coordinator_at: float = 0.0,
    restart_coordinator_at: float = 0.0,
    seed: int = 1,
    label: str | None = None,
) -> PointResult:
    """One flyweight population at total ``rate`` req/s over ``n_sessions``.

    The KV service has two partitions, one responding replica each; 20 %
    of the requests span both partitions, and a request times out after
    0.25 s. ``admission_inflight`` > 0 enables gateway admission control
    with the given bounds; ``crash_coordinator_at`` > 0 crashes ring 0's
    coordinator at that time (restarting at ``restart_coordinator_at``)
    for the overload/graceful-degradation scenario.
    """
    partitioner = RangePartitioner(_N_PARTITIONS)
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=partitioner.n_groups, seed=seed))
    for p in range(_N_PARTITIONS):
        Replica(mrp, partitioner, p, KeyValueStore(), name=f"replica{p}", respond=True)
    mix = SessionMix(zipf_s=zipf_s, multi_partition_fraction=_MULTI_PARTITION_FRACTION)
    admission = None
    if admission_inflight > 0:
        admission = AdmissionPolicy(max_inflight=admission_inflight, max_queue=admission_queue)
    end = warmup + duration
    population = ClientPopulation(
        mrp, partitioner, n_sessions, ConstantRate(rate), mix=mix,
        request_timeout=_REQUEST_TIMEOUT, stop_at=end, admission=admission,
    ).start()
    if crash_coordinator_at > 0:
        mrp.sim.at(crash_coordinator_at, lambda: mrp.crash_coordinator(0))
        if restart_coordinator_at > crash_coordinator_at:
            mrp.sim.at(restart_coordinator_at, lambda: mrp.restart_coordinator(0))
    rates = _measure(
        mrp.sim, warmup, duration,
        completed=lambda: population.completions.value,
        cpu=mrp.rings[0].coordinator.node.cpu.busy_time,
    )
    # Drain the tail: outstanding requests get their full retry budget, so
    # timeout/abandonment counters and the latency tail are final.
    mrp.run(until=end + (population.max_retries + 1) * _REQUEST_TIMEOUT)
    p50, p99, p999 = population.quantiles([0.5, 0.99, 0.999])
    shed = delayed = 0.0
    for gateway in (population.primary, population.spare):
        if gateway.admission is not None:
            shed += gateway.admission.shed.value
            delayed += gateway.admission.delayed.value
    return PointResult(
        label=label or f"{n_sessions} sessions, zipf={zipf_s:g}",
        offered_mbps=rate * _COMMAND_SIZE * 8 / 1e6,
        delivered_mbps=rates.completed * _COMMAND_SIZE * 8 / 1e6,
        msgs_per_s=rates.completed,
        latency_ms=p50 * 1e3,
        cpu_pct=100.0 * rates.cpu,
        extra={
            "n_sessions": n_sessions,
            "zipf_s": zipf_s,
            "p50_ms": p50 * 1e3,
            "p99_ms": p99 * 1e3,
            "p999_ms": p999 * 1e3,
            "cdf_ms": [(v * 1e3, q) for v, q in population.request_latency.cdf(10)],
            "arrivals": population.arrivals.value,
            "requests": population.requests.value,
            "completions": population.completions.value,
            "timeouts": population.timeouts.value,
            "retries": population.retries.value,
            "failovers": population.failovers.value,
            "abandoned": population.abandoned.value,
            "shed": shed,
            "delayed": delayed,
        },
    )
