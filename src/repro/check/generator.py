"""Seeded random fault-schedule generation.

Given a deployment's topology and a single :class:`random.Random`, draw a
:class:`~repro.check.schedule.Schedule` composing process crashes (with
optional restarts), network partitions, uniform-loss phases, and
slow-network / slow-disk phases. The same seed always yields the same
schedule — that, plus the deterministic simulator underneath, is what
makes every fuzz failure a reproducible artifact.

Faults land inside ``[5%, 85%]`` of the run's workload window, leaving the
tail (plus the driver's forced heal-everything epilogue) for recovery.
Stateful fault kinds — partition, loss, slow-net, slow-disk — draw
*disjoint* windows per kind, so one partition object and one tunable loss
suffice and phase starts/ends never interleave ambiguously.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .schedule import Schedule, ScheduleStep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.deployment import MultiRingPaxos

__all__ = ["PROFILES", "Topology", "topology_of", "generate_schedule"]


@dataclass(frozen=True, slots=True)
class Topology:
    """What the generator needs to know about a deployment.

    ``crash_targets`` are role names the schedule runner resolves
    (``coordinator:R``, ``acceptor:R:I``, ``learner:I``, ``proposer:I``);
    ``nodes`` are machine names eligible for partition islands;
    ``wan_pairs`` are region pairs whose WAN link can be cut (empty on a
    single-switch fabric); ``groups`` and ``rings`` are the deployment's
    atomic-multicast group ids and ring ids, the operands of the
    elasticity steps (remap / ring_split / ring_merge).
    """

    crash_targets: tuple[str, ...]
    nodes: tuple[str, ...]
    wan_pairs: tuple[tuple[str, str], ...] = ()
    groups: tuple[int, ...] = ()
    rings: tuple[int, ...] = ()


def topology_of(mrp: "MultiRingPaxos", replicas: int = 0) -> Topology:
    """Extract the crashable roles and partitionable machines of ``mrp``.

    ``replicas`` adds the targets ``replica:0`` .. ``replica:{replicas - 1}``
    for the SMR replicas a fuzz case deploys beside ``mrp``'s own roles.
    """
    targets: list[str] = []
    for ring_id in sorted(mrp.rings):
        targets.append(f"coordinator:{ring_id}")
        for i in range(len(mrp.rings[ring_id].acceptors)):
            targets.append(f"acceptor:{ring_id}:{i}")
    for i in range(len(mrp.learners)):
        targets.append(f"learner:{i}")
    for i in range(len(mrp.proposers)):
        targets.append(f"proposer:{i}")
    targets += (f"replica:{i}" for i in range(replicas))
    wan_pairs: tuple[tuple[str, str], ...] = ()
    geo = getattr(mrp.network, "topology", None)
    if geo is not None:
        regions = geo.regions
        wan_pairs = tuple(
            (a, b)
            for i, a in enumerate(regions)
            for b in regions[i + 1:]
        )
    return Topology(
        crash_targets=tuple(targets),
        nodes=tuple(sorted(mrp.network.nodes)),
        wan_pairs=wan_pairs,
        groups=tuple(mrp.registry.group_ids()),
        rings=tuple(sorted(mrp.rings)),
    )


def _phase_windows(
    rng: random.Random, lo: float, hi: float, count: int
) -> list[tuple[float, float]]:
    """``count`` disjoint (start, end) windows inside [lo, hi].

    Drawn as 2·count sorted uniform points paired off — disjoint by
    construction. Degenerate windows (shorter than 1% of the span) are
    discarded rather than stretched, keeping the draw unbiased.
    """
    if count <= 0:
        return []
    points = sorted(rng.uniform(lo, hi) for _ in range(2 * count))
    min_width = 0.01 * (hi - lo)
    return [
        (points[2 * i], points[2 * i + 1])
        for i in range(count)
        if points[2 * i + 1] - points[2 * i] >= min_width
    ]


def _crashes(
    rng: random.Random, count: int, targets, lo: float, hi: float,
    downtime: tuple[float, float], duration: float, restart_p: float | None = None,
) -> list[ScheduleStep]:
    """``count`` crash episodes, each on a role of ``targets`` at a
    uniform time in [lo, hi].

    A crash is restarted ``rng.uniform(*downtime)`` run durations later,
    no later than ``hi``. Without ``restart_p`` every crash is restarted;
    with it, only when ``rng.random() < restart_p``, and the rest stay
    down until the driver's epilogue revives everything.
    """
    steps = []
    for _ in range(count):
        target = rng.choice(targets)
        t = rng.uniform(lo, hi)
        steps.append(ScheduleStep(t, "crash", target=target))
        if restart_p is None or rng.random() < restart_p:
            dt = rng.uniform(*downtime) * duration
            steps.append(ScheduleStep(min(t + dt, hi), "restart", target=target))
    return steps


def _partitions(
    rng: random.Random, count: int, nodes: tuple[str, ...], lo: float, hi: float
) -> list[ScheduleStep]:
    """Up to ``count`` partition windows: an island of up to half the
    machines, cut then healed."""
    steps = []
    for start, end in _phase_windows(rng, lo, hi, count):
        k = rng.randint(1, max(1, len(nodes) // 2))
        island = tuple(sorted(rng.sample(list(nodes), k)))
        steps.append(ScheduleStep(start, "partition", island=island))
        steps.append(ScheduleStep(end, "heal"))
    return steps


def _losses(
    rng: random.Random, count: int, lo: float, hi: float, worst: float
) -> list[ScheduleStep]:
    """Up to ``count`` uniform-loss windows, each dropping a fraction
    drawn from [0.01, worst]."""
    steps = []
    for start, end in _phase_windows(rng, lo, hi, count):
        steps.append(ScheduleStep(start, "loss", p=round(rng.uniform(0.01, worst), 4)))
        steps.append(ScheduleStep(end, "loss_end"))
    return steps


def generate_schedule(
    rng: random.Random, topology: Topology, duration: float, profile: str = "default"
) -> Schedule:
    """Draw a random fault schedule for a run of ``duration`` seconds.

    ``profile`` names the fault mix, a row of :data:`PROFILES`. The
    default profile's rng consumption is frozen — corpus seeds must keep
    reproducing byte-identical schedules; the other profiles draw from
    their own branches.
    """
    try:
        schedule, _ = PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown schedule profile {profile!r}") from None
    return schedule(rng, topology, duration, 0.05 * duration, 0.85 * duration)


def _default_schedule(
    rng: random.Random, topology: Topology, duration: float, lo: float, hi: float
) -> Schedule:
    """The default mix: crashes, partitions, loss, slow network and disk."""
    # Crash episodes: each picks a role; most get a restart, some stay
    # down until the driver's epilogue revives everything.
    steps = _crashes(
        rng, rng.randint(0, 3), topology.crash_targets, lo, hi, (0.05, 0.4), duration, 0.8
    )
    steps += _partitions(rng, rng.randint(0, 2), topology.nodes, lo, hi)
    steps += _losses(rng, rng.randint(0, 2), lo, hi, 0.25)

    # Slow-network phase: propagation delay multiplied for a window.
    for start, end in _phase_windows(rng, lo, hi, rng.randint(0, 1)):
        steps.append(ScheduleStep(start, "slow_net", factor=round(rng.uniform(2.0, 20.0), 2)))
        steps.append(ScheduleStep(end, "slow_net_end"))

    # Slow-disk phase: drain rates divided for a window (durable runs).
    for start, end in _phase_windows(rng, lo, hi, rng.randint(0, 1)):
        steps.append(ScheduleStep(start, "slow_disk", factor=round(rng.uniform(2.0, 8.0), 2)))
        steps.append(ScheduleStep(end, "slow_disk_end"))

    if not steps:
        # Every draw came up empty — force one crash/restart pair so a
        # "fault schedule" always injects at least one fault.
        target = rng.choice(topology.crash_targets)
        t = rng.uniform(lo, 0.5 * (lo + hi))
        steps.append(ScheduleStep(t, "crash", target=target))
        steps.append(ScheduleStep(min(t + 0.2 * duration, hi), "restart", target=target))

    return Schedule(steps)


def _restart_heavy_schedule(
    rng: random.Random, topology: Topology, duration: float, lo: float, hi: float
) -> Schedule:
    """The restart-heavy mix: crash/restart churn, little else.

    Every crashed role comes back while the run is still live (short
    downtimes), so recovery — not mere fail-stop tolerance — is what the
    oracles observe: restarted durable acceptors must answer from their
    replayed log, restarted learners must pull the missed suffix, and
    restarted replicas must reload a checkpoint and replay forward.
    A thin garnish of loss/partition windows keeps the recovery traffic
    itself under fire some of the time.
    """
    steps = _crashes(rng, rng.randint(2, 5), topology.crash_targets, lo, hi, (0.03, 0.15), duration)
    steps += _losses(rng, rng.randint(0, 1), lo, hi, 0.15)
    steps += _partitions(rng, rng.randint(0, 1), topology.nodes, lo, hi)
    return Schedule(steps)


def _reconfig_schedule(
    rng: random.Random, topology: Topology, duration: float, lo: float, hi: float
) -> Schedule:
    """The elasticity mix: epoch cuts racing the faults they must survive.

    Several group remaps (including deliberate no-ops and back-to-back
    moves of the same group — the manager queues them) plus an occasional
    ring split, sometimes merged back, land inside the fault window. The
    split's fresh ring gets the next free id, known at generation time
    because ring ids are allocated ``max + 1``; a merge drawn without a
    preceding split is aimed between existing rings. On top: the same
    crash/restart churn and partition windows as the default mix, so
    proposer holds, drains (retransmissions decided on the source ring)
    and cut retries run under coordinator loss and network splits — the
    hand-off paths the epoch-boundary oracles watch.
    """
    steps: list[ScheduleStep] = []
    groups = topology.groups or (0,)
    rings = list(topology.rings or (0,))

    for _ in range(rng.randint(1, 3)):
        steps.append(ScheduleStep(
            rng.uniform(lo, hi), "remap",
            group=rng.choice(groups), ring=rng.choice(rings),
        ))

    if rng.random() < 0.6:
        t = rng.uniform(lo, 0.7 * hi)
        source = rng.choice(rings)
        steps.append(ScheduleStep(t, "ring_split", ring=source))
        new_ring = max(rings) + 1
        if rng.random() < 0.5:
            steps.append(ScheduleStep(
                rng.uniform(t, hi), "ring_merge",
                island=(str(new_ring), str(source)),
            ))
    elif len(rings) > 1:
        a, b = rng.sample(rings, 2)
        steps.append(ScheduleStep(
            rng.uniform(lo, hi), "ring_merge", island=(str(a), str(b)),
        ))

    steps += _crashes(
        rng, rng.randint(1, 2), topology.crash_targets, lo, hi, (0.05, 0.25), duration
    )
    steps += _partitions(rng, rng.randint(0, 1), topology.nodes, lo, hi)
    steps += _losses(rng, rng.randint(0, 1), lo, hi, 0.15)
    return Schedule(steps)


def _false_suspicion_schedule(
    rng: random.Random, topology: Topology, duration: float, lo: float, hi: float
) -> Schedule:
    """The default mix, plus a takeover of a coordinator that is alive.

    One coordinator is cut off from everything for 0.1-0.25 s — longer
    than its members' suspect timeout (0.05 s in the fuzz deployment), so
    they depose it by a Phase 1 it never sees, and after the heal it is
    still proposing under its old round. The cut takes a gap between the
    default mix's own partition windows (one partition object serves
    them all). One group remap lands inside the cut, so a takeover races
    the epoch-cut protocol.
    """
    steps = _default_schedule(rng, topology, duration, lo, hi).steps
    width = rng.uniform(0.1, 0.25)
    bounds = [lo, *(s.time for s in steps if s.action in ("partition", "heal")), hi]
    gaps = list(zip(bounds[::2], bounds[1::2]))
    fits = [gap for gap in gaps if gap[1] - gap[0] > width]
    a, b = rng.choice(fits) if fits else max(gaps, key=lambda gap: gap[1] - gap[0])
    start = rng.uniform(a, max(a, b - width))
    end = min(start + width, b)
    coordinator = rng.choice([n for n in topology.nodes if n.endswith("-coord")])
    steps.append(ScheduleStep(start, "partition", island=(coordinator,)))
    steps.append(ScheduleStep(end, "heal"))
    steps.append(ScheduleStep(
        rng.uniform(start, end), "remap",
        group=rng.choice(topology.groups or (0,)), ring=rng.choice(topology.rings or (0,)),
    ))
    return Schedule(steps)


def _overload_schedule(
    rng: random.Random, topology: Topology, duration: float, lo: float, hi: float
) -> Schedule:
    """The overload mix: outages exactly where the client tier feels them.

    Crash/restart pairs draw from the ring coordinators and the
    population's gateway proposers (the fuzz build appends the gateways
    last, so they are the final two proposer targets). A crashed gateway
    black-holes submissions without consuming sequence numbers; a crashed
    coordinator stalls acks so in-flight capacity never frees — either
    way the population's timeout wheel, spare-gateway failover, and the
    gateways' bounded intake (delays, then sheds) all actually trigger.
    An occasional loss window keeps the retry traffic itself lossy.
    """
    proposers = [t for t in topology.crash_targets if t.startswith("proposer:")]
    coordinators = [t for t in topology.crash_targets if t.startswith("coordinator:")]
    pool = coordinators + proposers[-2:]
    steps = _crashes(rng, rng.randint(1, 3), pool, lo, hi, (0.05, 0.25), duration)
    steps += _losses(rng, rng.randint(0, 1), lo, hi, 0.15)
    return Schedule(steps)


def _geo_schedule(
    rng: random.Random, topology: Topology, duration: float, lo: float, hi: float
) -> Schedule:
    """The WAN mix: link partitions and jitter spikes, plus light churn.

    Every fault here stresses the geo layer: a cut WAN link severs whole
    regions from each other (proposer retransmission and learner repair
    must span the heal), and a jitter spike multiplies every link's
    configured jitter — reordering pressure the per-link FIFO clamp must
    absorb. A little crash/restart churn keeps the node-level recovery
    paths honest in the same runs.
    """
    steps: list[ScheduleStep] = []
    pairs = topology.wan_pairs

    # WAN partition windows: the headline fault of this profile.
    for start, end in _phase_windows(rng, lo, hi, rng.randint(1, 2)):
        if not pairs:
            break
        pair = rng.choice(pairs)
        steps.append(ScheduleStep(start, "wan_partition", island=pair))
        steps.append(ScheduleStep(end, "wan_heal"))

    # Jitter spikes: amplify the configured jitter for a window.
    for start, end in _phase_windows(rng, lo, hi, rng.randint(0, 2)):
        steps.append(ScheduleStep(start, "wan_jitter", factor=round(rng.uniform(3.0, 12.0), 2)))
        steps.append(ScheduleStep(end, "wan_jitter_end"))

    # Light crash/restart churn on top.
    steps += _crashes(
        rng, rng.randint(0, 2), topology.crash_targets, lo, hi, (0.05, 0.3), duration, 0.8
    )

    if not steps:
        # Degenerate draw: force one WAN cut (or a crash pair without
        # any WAN links) so the schedule always injects a fault.
        t = rng.uniform(lo, 0.5 * (lo + hi))
        if pairs:
            steps.append(ScheduleStep(t, "wan_partition", island=rng.choice(pairs)))
            steps.append(ScheduleStep(min(t + 0.2 * duration, hi), "wan_heal"))
        else:
            target = rng.choice(topology.crash_targets)
            steps.append(ScheduleStep(t, "crash", target=target))
            steps.append(ScheduleStep(min(t + 0.2 * duration, hi), "restart", target=target))

    return Schedule(steps)


# Each fault mix: its schedule generator and its one-line ``--profile`` help.
PROFILES = {
    "default": (_default_schedule, "balanced: crashes, partitions, loss, slow network and disk"),
    "restart-heavy": (_restart_heavy_schedule, "crash/restart churn with checkpointing replicas"),
    "geo": (_geo_schedule, "multi-datacenter with WAN partitions and jitter"),
    "overload": (_overload_schedule,
                 "client-population surge into admission-controlled gateways under outages"),
    "reconfig": (_reconfig_schedule,
                 "live group remaps and ring splits/merges racing crashes and partitions"),
    "false-suspicion": (_false_suspicion_schedule,
                        "a live coordinator cut off past its suspect timeout and taken over, "
                        "racing a remap"),
}
