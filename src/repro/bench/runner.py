"""Experiment runners: one measurement primitive per experiment family.

Every figure in the paper's evaluation reduces to one of a handful of
measurement shapes:

* a steady-state *point*: drive a deployment at a fixed offered load (or
  closed-loop at capacity), measure delivered throughput, latency and the
  most-loaded node's CPU over a window after warm-up;
* a *time series*: drive rate schedules and sample per-second multicast
  rate, delivery rate and latency (the λ and failure experiments).

All runners build a fresh simulator per point, so points are independent
and deterministic given the seed. That independence is load-bearing:
every runner is addressable as a :class:`repro.parallel.spec.Spec`
(``"repro.bench.runner:<name>"`` plus JSON-primitive kwargs), which is
how figure sweeps fan points out across worker processes and memoize
completed points on disk (see ``repro.parallel`` and
``repro.bench.figures``). Keep new runners pure functions of their
keyword arguments — no module-level mutable state, results picklable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from types import SimpleNamespace
from typing import Any, Callable, Iterable

from ..baselines.lcr import LCR_MESSAGE_SIZE, build_lcr_ring
from ..baselines.mencius import build_mencius
from ..baselines.spread import SPREAD_MESSAGE_SIZE, build_spread
from ..calibration import (
    DEFAULT_VALUE_SIZE,
    DISK_BANDWIDTH_BYTES_PER_S,
    bytes_per_s_to_mbps,
    mbps_to_bytes_per_s,
)
from ..core.config import MultiRingConfig
from ..core.deployment import MultiRingPaxos
from ..ringpaxos.builder import build_ring
from ..sim.network import Network
from ..sim.simulator import Simulator
from ..workload.generator import ClosedLoopGenerator, OpenLoopGenerator, ThrottledGenerator
from ..workload.rates import ConstantRate, RateSchedule, ScaledRate

__all__ = [
    "PointResult",
    "SeriesResult",
    "run_single_ring_point",
    "run_multiring_point",
    "run_partitioned_single_ring_point",
    "run_lcr_point",
    "run_mencius_point",
    "run_spread_point",
    "run_two_ring_parameter_point",
    "run_two_ring_timeseries",
    "run_coordinator_failure_timeseries",
    "run_elasticity_timeseries",
]


@dataclass(slots=True)
class PointResult:
    """One steady-state measurement."""

    label: str
    offered_mbps: float
    delivered_mbps: float
    msgs_per_s: float
    latency_ms: float
    cpu_pct: float
    extra: dict = field(default_factory=dict)


@dataclass(slots=True)
class SeriesResult:
    """Time-series measurement: lists of (t, value) points."""

    label: str
    multicast_mbps: dict[int, list[tuple[float, float]]]
    delivered_mbps: list[tuple[float, float]]
    latency_ms: list[tuple[float, float]]
    extra: dict = field(default_factory=dict)


# The λ time series' interarrival jitter and ring 1's slowdown
# (run_two_ring_timeseries), and the throttled senders' outstanding-message
# bound (Figure 12 and elasticity).
_LAMBDA_JITTER = 0.15
_RATE_SKEW = 0.01
_THROTTLE_WINDOW = 8000


def _rate_to_msgs(offered_mbps: float) -> float:
    return mbps_to_bytes_per_s(offered_mbps) / DEFAULT_VALUE_SIZE


def _measure(sim: Simulator, warmup: float, duration: float, **readings) -> SimpleNamespace:
    """Run ``sim`` to ``warmup + duration``; each reading's growth per second.

    A reading is a zero-argument counter, or a tuple of FIFO servers,
    which grows by its busiest server's busy seconds. One snapshot at
    ``warmup`` takes every reading, so the window opens after warm-up.
    """

    def read(reading) -> list[float]:
        return [s.busy_time() for s in reading] if isinstance(reading, tuple) else [reading()]

    start: dict[str, list[float]] = {}
    sim.at(warmup, lambda: start.update((key, read(r)) for key, r in readings.items()))
    sim.run(until=warmup + duration)
    return SimpleNamespace(**{
        key: max(now - then for now, then in zip(read(r), start[key])) / duration
        for key, r in readings.items()
    })


def _series(learner, per_ring: dict, duration: float, label: str, extra: dict) -> SeriesResult:
    """The three series of ``learner`` over ``[0, duration]``.

    ``per_ring`` maps a ring or group to its byte series; the learner's
    delivery and latency series complete the result.
    """

    def mbps(series) -> list[tuple[float, float]]:
        return [(t, bytes_per_s_to_mbps(v)) for t, v in series.series(0.0, duration)]

    return SeriesResult(
        label=label,
        multicast_mbps={g: mbps(series) for g, series in per_ring.items()},
        delivered_mbps=mbps(learner.delivery_series),
        latency_ms=[(t, v * 1e3) for t, v in learner.latency_series.mean_series(0.0, duration)],
        extra=extra,
    )


def _closed_loop(
    sim: Simulator,
    sends: Iterable[tuple[Any, Callable[[], Any]]],
    make: Callable[..., Any] = ClosedLoopGenerator,
    ticket: Callable[[Any], Any] = attrgetter("seq"),
    **kwargs: Any,
) -> Callable[[Any, Any], None]:
    """Build and start one generator per ``(key, send)`` of ``sends``, in order.

    ``make(sim, send, **kwargs)`` builds each generator. Returns the
    completion hook ``complete(key, value)``: it releases ``ticket(value)``
    on the generator ``key`` names, if there is one. ``sends`` may be lazy
    (:func:`_group_sends`), so whatever it builds for a generator is
    built just before that generator starts.
    """
    gens = {}
    for key, send in sends:
        gens[key] = gen = make(sim, send, **kwargs)
        gen.start()

    def complete(key: Any, value: Any) -> None:
        gen = gens.get(key)
        if gen is not None:
            gen.notify(ticket(value))

    return complete


def _group_sends(
    mrp: MultiRingPaxos,
    n_groups: int,
    send: Callable[[Any, int], Callable[[], Any]] | None = None,
):
    """Per group, add a proposer; yield ``((proposer name, group), send)``.

    ``send`` multicasts an 8 KiB value to the group, or is
    ``send(proposer, group)`` when given.
    """
    for g in range(n_groups):
        prop = mrp.add_proposer()
        yield (prop.node.name, g), (
            partial(prop.multicast, g, None, DEFAULT_VALUE_SIZE) if send is None else send(prop, g)
        )


# ---------------------------------------------------------------------------
# Figure 1 — single Ring Paxos, In-memory vs Recoverable
# ---------------------------------------------------------------------------
def run_single_ring_point(
    offered_mbps: float,
    durable: bool,
    duration: float = 2.0,
    warmup: float = 1.0,
    disk_bandwidth: float = DISK_BANDWIDTH_BYTES_PER_S,
    seed: int = 1,
) -> PointResult:
    """Open-loop load of 8 KiB values on one ring; the Figure 1
    latency-throughput curve.

    ``disk_bandwidth`` sets the acceptors' disks of a Recoverable ring
    (the model's perturbation checks vary it).
    """
    sim = Simulator(seed=seed)
    net = Network(sim)
    ring = build_ring(sim, net, durable=durable, disk_bandwidth=disk_bandwidth)
    prop = ring.proposers[0]
    learner = ring.learners[0]
    OpenLoopGenerator(
        sim, lambda: prop.multicast(None, DEFAULT_VALUE_SIZE),
        ConstantRate(_rate_to_msgs(offered_mbps)),
    ).start()
    coord_node = ring.coordinator.node
    rates = _measure(
        sim, warmup, duration,
        delivered=lambda: learner.delivered_bytes.value,
        messages=lambda: learner.delivered_messages.value,
        cpu=coord_node.cpu.busy_time,
        disk=coord_node.disk.drain.busy_time if coord_node.disk else lambda: 0.0,
    )
    return PointResult(
        label=f"{'Recoverable' if durable else 'In-memory'} Ring Paxos",
        offered_mbps=offered_mbps,
        delivered_mbps=bytes_per_s_to_mbps(rates.delivered),
        msgs_per_s=rates.messages,
        latency_ms=learner.latency.trimmed_mean() * 1e3,
        cpu_pct=100.0 * rates.cpu,
        extra={"disk_util_pct": 100.0 * rates.disk},
    )


# ---------------------------------------------------------------------------
# Figures 5 and 6 — Multi-Ring Paxos scalability
# ---------------------------------------------------------------------------
def run_multiring_point(
    n_rings: int,
    durable: bool,
    subscribe_all: bool = False,
    duration: float = 2.0,
    warmup: float = 1.0,
    window: int = 48,
    seed: int = 1,
) -> PointResult:
    """Closed-loop capacity measurement of an n-ring deployment.

    ``subscribe_all=False``: one learner per group, each subscribing only
    its group (Figure 5 — aggregate throughput scales with rings).
    ``subscribe_all=True``: a single learner subscribed to every group
    (Figure 6 — capped by the learner's ingress link). Values are 8 KiB;
    λ, Δ and M are the :class:`MultiRingConfig` defaults (9000/s, 1 ms, 1).
    """
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=n_rings, durable=durable, seed=seed))
    sim = mrp.sim
    if subscribe_all:
        learners = [mrp.add_learner(groups=list(range(n_rings)))]
    else:
        learners = [mrp.add_learner(groups=[g]) for g in range(n_rings)]
    complete = _closed_loop(sim, _group_sends(mrp, n_rings), window=window)
    # Exactly one learner notifies each generator (the one for its group).
    for learner in learners:
        learner.on_deliver = lambda group, value: complete((value.sender, group), value)

    rates = _measure(
        sim, warmup, duration,
        delivered=lambda: sum(ln.delivered_bytes.value for ln in learners),
        messages=lambda: sum(ln.delivered_messages.value for ln in learners),
        coordinator=tuple(h.coordinator.node.cpu for h in mrp.rings.values()),
        learner=tuple(ln.node.cpu for ln in learners),
        ingress=tuple(mrp.network.nic(ln.node.name).ingress for ln in learners),
    )
    latencies = [ln.latency.trimmed_mean() for ln in learners if ln.latency.count]
    mode = "DISK M-RP" if durable else "RAM M-RP"
    return PointResult(
        label=f"{mode} x{n_rings}" + (" (all-groups learner)" if subscribe_all else ""),
        offered_mbps=0.0,
        delivered_mbps=bytes_per_s_to_mbps(rates.delivered),
        msgs_per_s=rates.messages,
        latency_ms=(sum(latencies) / len(latencies) * 1e3 if latencies else 0.0),
        cpu_pct=100.0 * max(rates.coordinator, rates.learner),
        extra={
            "coordinator_cpu_pct": 100.0 * rates.coordinator,
            "learner_cpu_pct": 100.0 * rates.learner,
            "learner_ingress_pct": 100.0 * rates.ingress,
        },
    )


# ---------------------------------------------------------------------------
# Figure 2 — partitioned dummy service over ONE Ring Paxos instance
# ---------------------------------------------------------------------------
def run_partitioned_single_ring_point(
    n_partitions: int,
    duration: float = 2.0,
    warmup: float = 1.0,
    window: int = 48,
    seed: int = 1,
) -> PointResult:
    """All partitions' groups mapped onto a single ring (γ > δ, δ = 1).

    Replicas discard messages instantly (the dummy service), so throughput
    is purely what the one ring can order — flat in the partition count.
    Values are 8 KiB.
    """
    mrp = MultiRingPaxos(
        MultiRingConfig(n_groups=n_partitions, n_rings=1, lambda_rate=0.0, seed=seed)
    )
    sim = mrp.sim
    learners = [mrp.add_learner(groups=[g]) for g in range(n_partitions)]
    complete = _closed_loop(sim, _group_sends(mrp, n_partitions), window=window)
    for learner in learners:
        learner.on_deliver = lambda group, value: complete((value.sender, group), value)
    rates = _measure(
        sim, warmup, duration,
        delivered=lambda: sum(ln.delivered_bytes.value for ln in learners),
        cpu=mrp.rings[0].coordinator.node.cpu.busy_time,
    )
    delivered_mbps = bytes_per_s_to_mbps(rates.delivered)
    return PointResult(
        label=f"partitioned x{n_partitions} (1 ring)",
        offered_mbps=0.0,
        delivered_mbps=delivered_mbps,
        msgs_per_s=0.0,
        latency_ms=0.0,
        cpu_pct=100.0 * rates.cpu,
        extra={"per_partition_mbps": delivered_mbps / n_partitions},
    )


# ---------------------------------------------------------------------------
# Figure 5 baselines — LCR and Spread
# ---------------------------------------------------------------------------
def run_lcr_point(
    n_nodes: int,
    duration: float = 2.0,
    warmup: float = 1.0,
    window: int = 16,
    seed: int = 1,
) -> PointResult:
    """Closed-loop LCR with 32 KiB messages: every node broadcasts;
    throughput is per-node delivery rate (every node delivers every
    message)."""
    sim = Simulator(seed=seed)
    nodes = build_lcr_ring(sim, Network(sim), n_nodes)
    return _broadcast_point(
        f"LCR x{n_nodes}", sim, nodes,
        [(n.node.name, partial(n.broadcast, None, LCR_MESSAGE_SIZE)) for n in nodes],
        attrgetter("origin"), nodes[:1], nodes, duration, warmup, window,
    )


def run_spread_point(
    n_daemons: int,
    duration: float = 2.0,
    warmup: float = 1.0,
    window: int = 16,
    seed: int = 1,
) -> PointResult:
    """Closed-loop Spread-like system with 16 KiB messages: one
    client/group per daemon."""
    sim = Simulator(seed=seed)
    daemons, clients = build_spread(sim, Network(sim), n_daemons)
    return _broadcast_point(
        f"Spread x{n_daemons}", sim, clients,
        [(c.node.name, partial(c.multicast, g, None, SPREAD_MESSAGE_SIZE))
         for g, c in enumerate(clients)],
        attrgetter("sender"), clients, daemons, duration, warmup, window,
    )


def run_mencius_point(
    n_servers: int,
    duration: float = 2.0,
    warmup: float = 1.0,
    window: int = 16,
    seed: int = 1,
) -> PointResult:
    """Closed-loop Mencius with 8 KiB values: every server broadcasts;
    throughput is the per-server delivery rate (every server delivers
    everything)."""
    sim = Simulator(seed=seed)
    servers = build_mencius(sim, Network(sim), n_servers)
    return _broadcast_point(
        f"Mencius x{n_servers}", sim, servers,
        [(s.node.name, partial(s.broadcast, None, DEFAULT_VALUE_SIZE)) for s in servers],
        attrgetter("sender"), servers[:1], servers, duration, warmup, window,
    )


def _broadcast_point(
    label, sim, members, sends, sender, observed, machines, duration, warmup, window
) -> PointResult:
    """The closed-loop body of the Figure 5 baselines and Mencius.

    Each of ``members`` sends through its generator of ``sends`` (keyed
    by the member's node name) and completes a send on delivering its own
    message, the one whose ``sender(msg)`` is that name. Throughput and latency are read at the
    ``observed`` members, CPU at the busiest of the ``machines``.
    """
    complete = _closed_loop(sim, sends, window=window)
    for member in members:
        member.on_deliver = lambda msg, me=member.node.name: (
            complete(me, msg) if sender(msg) == me else None
        )
    rates = _measure(
        sim, warmup, duration,
        delivered=lambda: sum(m.delivered_bytes.value for m in observed),
        messages=lambda: sum(m.delivered.value for m in observed),
        cpu=tuple(m.node.cpu for m in machines),
    )
    latencies = [m.latency.trimmed_mean() for m in observed if m.latency.count]
    return PointResult(
        label=label,
        offered_mbps=0.0,
        delivered_mbps=bytes_per_s_to_mbps(rates.delivered),
        msgs_per_s=rates.messages,
        latency_ms=(sum(latencies) / len(latencies) * 1e3 if latencies else 0.0),
        cpu_pct=100.0 * rates.cpu,
    )


# ---------------------------------------------------------------------------
# Figures 7 and 8 — the effect of Δ and M (two rings, one learner on both)
# ---------------------------------------------------------------------------
def run_two_ring_parameter_point(
    offered_mbps_total: float,
    delta: float = 1e-3,
    m: int = 1,
    duration: float = 2.0,
    warmup: float = 1.0,
    burst: int = 16,
    jitter: float = 0.3,
    seed: int = 1,
) -> PointResult:
    """Two rings at equal average rates, one learner subscribing to both.

    Arrivals of 8 KiB values are bursty and jittered (as real clients
    are): during the gaps of one ring the learner must wait for either
    that ring's next burst or the next skip correction — which is exactly
    what makes the choice of Delta visible in latency (paper, Section
    VI-C). λ is the :class:`MultiRingConfig` default, 9000/s.
    """
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=2, delta=delta, m=m, seed=seed))
    sim = mrp.sim
    learner = mrp.add_learner(groups=[0, 1])
    per_ring_rate = _rate_to_msgs(offered_mbps_total / 2.0)
    for g in range(2):
        prop = mrp.add_proposer()
        OpenLoopGenerator(
            sim,
            (lambda p=prop, g=g: p.multicast(g, None, DEFAULT_VALUE_SIZE)),
            ConstantRate(per_ring_rate),
            jitter=jitter,
            burst=burst,
            name=f"openloop.g{g}",
        ).start()
    rates = _measure(
        sim, warmup, duration,
        delivered=lambda: learner.delivered_bytes.value,
        coordinator=tuple(h.coordinator.node.cpu for h in mrp.rings.values()),
        learner=learner.node.cpu.busy_time,
    )
    return PointResult(
        label=f"delta={delta * 1e3:g}ms M={m} lambda={mrp.config.lambda_rate:g}",
        offered_mbps=offered_mbps_total,
        delivered_mbps=bytes_per_s_to_mbps(rates.delivered),
        msgs_per_s=0.0,
        latency_ms=learner.latency.trimmed_mean() * 1e3,
        cpu_pct=100.0 * rates.coordinator,
        extra={"learner_cpu_pct": 100.0 * rates.learner},
    )


# ---------------------------------------------------------------------------
# Figures 9-11 — λ time series (two rings, rate schedules)
# ---------------------------------------------------------------------------
def run_two_ring_timeseries(
    schedules: tuple[RateSchedule, RateSchedule],
    lambda_rate: float,
    duration: float = 100.0,
    buffer_limit: int = 200_000,
    seed: int = 1,
) -> SeriesResult:
    """Two rings of 8 KiB values driven by per-ring rate schedules;
    per-second series.

    Interarrivals carry 15 % mean-preserving jitter, and ring 1 runs 1 %
    slow. Physically identical machines still differ slightly (clocks,
    scheduling, batching), so "equal" offered rates drift apart
    systematically — which is exactly why the paper's learners never
    recover at lambda = 0 (Figure 9). Δ and M are the
    :class:`MultiRingConfig` defaults (1 ms, 1).
    """
    mrp = MultiRingPaxos(
        MultiRingConfig(n_groups=2, lambda_rate=lambda_rate, buffer_limit=buffer_limit, seed=seed)
    )
    sim = mrp.sim
    learner = mrp.add_learner(groups=[0, 1])
    for g, schedule in enumerate(schedules):
        prop = mrp.add_proposer()
        if g == 1:
            schedule = ScaledRate(schedule, 1.0 - _RATE_SKEW)
        OpenLoopGenerator(
            sim,
            (lambda p=prop, g=g: p.multicast(g, None, DEFAULT_VALUE_SIZE)),
            schedule,
            stop_at=duration,
            jitter=_LAMBDA_JITTER,
            name=f"openloop.g{g}",
        ).start()
    sim.run(until=duration)
    return _series(
        learner,
        {g: learner.ring_learners[g].receive_series for g in (0, 1)},
        duration,
        f"lambda={lambda_rate:g}",
        {
            "halted": learner.halted,
            "halted_at": learner.merge.halted_at,
            "buffered_instances": learner.buffered_instances,
        },
    )


# ---------------------------------------------------------------------------
# Figure 12 — coordinator failure and restart
# ---------------------------------------------------------------------------
def run_coordinator_failure_timeseries(
    rate_msgs_per_s: float = 4000.0,
    fail_at: float = 20.0,
    restart_after: float = 3.0,
    duration: float = 40.0,
    window: int = _THROTTLE_WINDOW,
    seed: int = 1,
) -> SeriesResult:
    """Two rings at ~constant rate; ring 0's coordinator dies and returns.

    Proposers of 8 KiB values are closed-loop on top of a rate pacer, so
    the learner's stall visibly throttles the sender of ring 1 (the
    effect the paper highlights in Figure 12's left plot). λ is the
    :class:`MultiRingConfig` default, 9000/s; series are per second.
    """
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=2, seed=seed))
    sim = mrp.sim
    learner = mrp.add_learner(groups=[0, 1])
    complete = _closed_loop(
        sim, _group_sends(mrp, 2), ThrottledGenerator,
        rate=rate_msgs_per_s, max_outstanding=window,
    )
    learner.on_deliver = lambda group, value: complete((value.sender, group), value)
    sim.at(fail_at, lambda: mrp.crash_coordinator(0))
    sim.at(fail_at + restart_after, lambda: mrp.restart_coordinator(0))
    sim.run(until=duration)
    return _series(
        learner,
        {g: learner.ring_learners[g].receive_series for g in (0, 1)},
        duration,
        "coordinator failure",
        {"fail_at": fail_at, "restart_at": fail_at + restart_after},
    )


def run_elasticity_timeseries(
    rate_msgs_per_s: float = 3000.0,
    remap_at: float = 10.0,
    split_at: float = 25.0,
    duration: float = 40.0,
    seed: int = 1,
) -> SeriesResult:
    """Live elasticity under load: consolidate, then split, while traffic
    keeps committing.

    Two groups start on their own rings. At ``remap_at`` the
    reconfiguration manager live-remaps group 1 onto ring 0 (the
    ring-merge direction: proposer hold, drain off ring 1, then two epoch
    cuts); at ``split_at`` the now-shared ring is split back, which
    deploys a fresh ring mid-run and moves group 1 onto it. Closed-loop
    throttled senders of 8 KiB values per group, 8000 outstanding at
    most, expose any delivery stall as a visible throughput dip, and the
    per-group delivered series (per second) shows the moved group's
    stream continuing across both epoch boundaries. ``extra`` records
    when each operation completed (simulated time), so the headline
    claim — the remap finishes while traffic commits — is a number, not
    a narrative. λ is the :class:`MultiRingConfig` default, 9000/s.
    """
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=2, seed=seed))
    sim = mrp.sim
    learner = mrp.add_learner(groups=[0, 1])

    def numbered(prop, g):
        # Close the loop on a payload id rather than the proposer seq: a
        # multicast during the remap's hold window returns None (the
        # payload is queued and flushed at release, when it gets its real
        # seq), but the payload travels unchanged, so delivery can always
        # be matched back to the send.
        counter = iter(range(10**9))

        def send():
            i = next(counter)
            prop.multicast(g, i, DEFAULT_VALUE_SIZE)
            return SimpleNamespace(seq=i)

        return send

    complete = _closed_loop(
        sim, _group_sends(mrp, 2, numbered), ThrottledGenerator,
        ticket=attrgetter("payload"), rate=rate_msgs_per_s, max_outstanding=_THROTTLE_WINDOW,
    )
    learner.on_deliver = lambda group, value: complete((value.sender, group), value)
    done_at: dict[str, float] = {}
    sim.at(remap_at, lambda: mrp.reconfig.remap_group(
        1, 0, on_done=lambda op: done_at.__setitem__("remap", sim.now)))

    def split() -> None:
        new_ring = mrp.reconfig.split_ring(0)
        done_at["split_new_ring"] = new_ring if new_ring is not None else -1

    sim.at(split_at, split)
    sim.run(until=duration)
    return _series(
        learner,
        {g: learner.group_series[g] for g in (0, 1)},
        duration,
        "live elasticity",
        {
            "remap_at": remap_at,
            "split_at": split_at,
            "remap_done_at": done_at.get("remap"),
            "split_new_ring": done_at.get("split_new_ring"),
            "final_epoch": mrp.reconfig.epoch,
        },
    )
