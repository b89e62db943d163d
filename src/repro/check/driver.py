"""The simulation fuzzer: seeded cases, liveness-after-heal, shrinking.

One fuzz *case* is fully determined by an integer seed: the seed draws a
deployment configuration (:func:`draw_config`), a workload, and a fault
schedule (:mod:`repro.check.generator`), then runs them under the full
safety-oracle set (:mod:`repro.check.oracles`). After the scheduled fault
window the driver force-heals everything — partition, loss, link/disk
speed, every crashed role — and grants a bounded grace period in which
every message a proposer actually multicast must reach every learner
subscribed to its group (*liveness after heal*). Violations become
:class:`~repro.check.oracles.OracleViolation` results.

On failure the driver greedily shrinks the fault schedule — repeatedly
re-running with one step removed and keeping any removal that still
reproduces the same oracle violation — and writes the minimal schedule,
plus everything needed to replay it, as JSON. ``repro fuzz --replay
file.json`` re-runs exactly that case.

Cases are independent (each builds a fresh deployment from its seed), so
``--jobs N|auto`` fans them out across worker processes through
:mod:`repro.parallel`; verdicts come back in seed order and shrinking
plus failure-artifact writing always happen in the parent process.
``--cache`` additionally memoizes verdicts in ``results/.cache`` keyed
by the case spec and the code version.

CLI entry point: :func:`fuzz_main` (wired to ``python -m repro fuzz``).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from ..calibration import DISK_BANDWIDTH_BYTES_PER_S
from ..core.admission import AdmissionPolicy
from ..core.config import MultiRingConfig
from ..core.deployment import MultiRingPaxos
from ..errors import ConfigurationError
from ..sim.faults import NetworkPartition
from ..sim.loss import TunableLoss
from ..sim.topology import Topology as GeoTopology
from ..smr.kvstore import KeyValueStore
from ..smr.partitioning import RangePartitioner
from ..smr.replica import Replica
from ..smr.statemachine import Command
from ..workload.population import ClientPopulation
from ..workload.rates import ConstantRate
from .generator import PROFILES, generate_schedule, topology_of
from .oracles import AdmissionOracles, OracleViolation, SafetyOracles
from .schedule import Schedule, ScheduleRunner

__all__ = [
    "CaseConfig",
    "CaseResult",
    "draw_config",
    "run_case",
    "shrink",
    "failure_to_dict",
    "load_failure",
    "fuzz_main",
]

FORMAT_VERSION = 1


@dataclass(slots=True)
class CaseConfig:
    """Everything (besides the schedule) that defines one fuzz case.

    JSON-serializable so a failure file can rebuild the exact deployment.
    ``learners`` is one subscription list per learner; the workload is
    regenerated from ``workload_seed``, not stored.
    """

    n_groups: int = 2
    acceptors_per_ring: int = 2
    durable: bool = False
    lambda_rate: float = 1000.0
    delta: float = 5e-3
    sim_seed: int = 0
    workload_seed: int = 0
    learners: list[list[int]] = field(default_factory=lambda: [[0], [0, 1]])
    n_proposers: int = 1
    messages_per_proposer: int = 40
    value_size: int = 2048
    duration: float = 1.5
    profile: str = "default"
    replicas: int = 0
    checkpoint_interval: int = 0
    regions: int = 1
    wan_ms: float = 0.0
    wan_jitter_ms: float = 0.0
    population_sessions: int = 0
    population_rate: float = 0.0
    admission_inflight: int = 0
    admission_queue: int = 0

    @classmethod
    def from_dict(cls, data: dict) -> "CaseConfig":
        """Rebuild a config from its JSON form.

        A replay file is outside input, so a config that could not run as
        written raises :class:`ConfigurationError` naming the field: an
        unknown key, fewer than one proposer or message per proposer
        (liveness would be vacuous), a profile :data:`PROFILES` does not
        name, or a duration that is not finite and positive.
        """
        unknown = data.keys() - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(f"unknown case-config field(s) {sorted(unknown)}")
        config = cls(**data)
        for name in ("n_proposers", "messages_per_proposer"):
            if not getattr(config, name) >= 1:
                raise ConfigurationError(f"{name} must be >= 1, not {getattr(config, name)!r}")
        if config.profile not in PROFILES:
            raise ConfigurationError(f"unknown profile {config.profile!r}")
        if not 0 < config.duration < math.inf:
            raise ConfigurationError(f"duration must be finite and > 0, not {config.duration!r}")
        return config


def draw_config(rng: random.Random, profile: str = "default") -> CaseConfig:
    """Draw a deployment + workload configuration from ``rng``.

    Small enough to simulate in well under a second, varied enough to
    cover single- and multi-ring merges, durable acceptors, and both
    light and skip-heavy rings. Every group gets at least one subscribed
    learner (otherwise liveness would be vacuous for it), and multi-group
    deployments always include at least one merging learner.

    The default profile's draw sequence is frozen — corpus seeds in the
    regression suite must keep reproducing the same cases. Profile
    ``"restart-heavy"`` draws the same base and then, from *additional*
    rng draws, biases toward durable acceptors and adds checkpointing
    replicas (two per partition, so the replica-order oracle has pairs
    to compare). ``"false-suspicion"`` keeps the base as drawn: ``_build``
    turns on the message-driven takeover, one spare per ring, for it.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown fuzz profile {profile!r}")
    n_groups = rng.randint(1, 3)
    n_learners = rng.randint(2, 3)
    learners = [
        sorted(rng.sample(range(n_groups), rng.randint(1, n_groups)))
        for _ in range(n_learners)
    ]
    covered = {g for subs in learners for g in subs}
    for group in range(n_groups):
        if group not in covered:
            subs = learners[rng.randrange(n_learners)]
            subs.append(group)
            subs.sort()
    if n_groups > 1 and not any(len(subs) > 1 for subs in learners):
        subs = learners[rng.randrange(n_learners)]
        subs.append(next(g for g in range(n_groups) if g not in subs))
        subs.sort()
    config = CaseConfig(
        n_groups=n_groups,
        acceptors_per_ring=rng.choice([2, 2, 3]),
        durable=rng.random() < 0.2,
        lambda_rate=float(rng.choice([600, 1000, 2000])),
        delta=5e-3,
        sim_seed=rng.randrange(2**31),
        workload_seed=rng.randrange(2**31),
        learners=learners,
        n_proposers=rng.randint(1, 2),
        messages_per_proposer=rng.randint(30, 60),
        value_size=rng.choice([512, 2048, 8192]),
        duration=1.5,
        profile=profile,
    )
    if profile == "restart-heavy":
        config.durable = rng.random() < 0.6
        if config.n_groups == 1:
            # Replicas need a partition group plus g_all; existing learner
            # subscriptions (all within group 0) stay valid.
            config.n_groups = 2
        n_partitions = config.n_groups - 1
        config.replicas = 2 * n_partitions
        config.checkpoint_interval = rng.choice([4, 8, 16])
    elif profile == "geo":
        # Additional draws on top of the frozen base: a multi-datacenter
        # fabric. Groups spread round-robin over regions, so learners and
        # rings land in different datacenters and the WAN links carry the
        # protocol traffic the geo schedule then cuts and jitters.
        config.regions = rng.randint(2, 3)
        config.wan_ms = float(rng.choice([5, 15, 30]))
        config.wan_jitter_ms = round(rng.uniform(0.5, 3.0), 2)
    elif profile == "overload":
        # Additional draws on top of the frozen base: a flyweight client
        # population surging through admission-controlled gateways, one
        # responding replica per partition so requests complete end to
        # end, and intake bounds tight enough that the overload schedule
        # (gateway/coordinator outages) actually forces delays and sheds.
        if config.n_groups == 1:
            # Populations need a partition group plus g_all; existing
            # learner subscriptions (all within group 0) stay valid.
            config.n_groups = 2
        config.replicas = config.n_groups - 1
        config.population_sessions = rng.choice([5_000, 50_000])
        config.population_rate = float(rng.choice([800, 1600]))
        config.admission_inflight = rng.choice([16, 32, 64])
        config.admission_queue = rng.choice([32, 128])
    elif profile == "reconfig":
        # Overrides on top of the frozen base: live elasticity. Remaps
        # need at least two groups (so a move actually changes the
        # mapping), and every learner subscribes to every group, as the
        # corpus seeds were drawn (learners with different subscriptions
        # across a remap are the false-suspicion profile's, and
        # test_reconfiguration.py's). Volatile acceptors, no replicas:
        # checkpoint truncation during a mid-move coordinator change is a
        # documented open interaction, not what this profile hunts.
        config.durable = False
        if config.n_groups == 1:
            config.n_groups = 2
        config.learners = [list(range(config.n_groups)) for _ in config.learners]
    return config


@dataclass(slots=True)
class CaseResult:
    """Outcome of one fuzz case (the inputs travel with the verdict)."""

    seed: int
    config: CaseConfig
    schedule: Schedule
    ok: bool
    oracle: str | None = None
    message: str | None = None
    events_checked: int = 0


def _build(config: CaseConfig):
    """Deployment + fault hooks + oracles for one case."""
    loss = TunableLoss()
    partition = NetworkPartition(set(), underlying=loss)
    topology = None
    group_regions = None
    if config.regions > 1:
        topology = GeoTopology(
            [f"dc{i}" for i in range(config.regions)],
            wan_latency=config.wan_ms * 1e-3,
            wan_jitter=config.wan_jitter_ms * 1e-3,
        )
        group_regions = [f"dc{g % config.regions}" for g in range(config.n_groups)]
    failover = config.profile == "false-suspicion"
    mrp = MultiRingPaxos(
        MultiRingConfig(
            n_groups=config.n_groups,
            acceptors_per_ring=config.acceptors_per_ring,
            durable=config.durable,
            lambda_rate=config.lambda_rate,
            delta=config.delta,
            seed=config.sim_seed,
            topology=topology,
            group_regions=group_regions,
            auto_failover=failover,
            spares_per_ring=int(failover),
        )
    )
    mrp.network.loss = partition
    oracles = SafetyOracles().attach(mrp.sim)
    # Plain learners first: schedule targets index mrp.learners, and
    # replica-owned learners (appended by Replica below) must not shift
    # the indices the default-profile corpus schedules were drawn for.
    # Geo learners stay region-local (the add_learner default); proposers
    # spread round-robin over regions so submissions cross the WAN.
    learners = [mrp.add_learner(groups=list(subs)) for subs in config.learners]
    proposers = [
        mrp.add_proposer(region=f"dc{i % config.regions}" if topology is not None else None)
        for i in range(config.n_proposers)
    ]
    replicas = []
    if config.replicas:
        partitioner = RangePartitioner(max(1, config.n_groups - 1))
        for i in range(config.replicas):
            replicas.append(
                Replica(
                    mrp,
                    partitioner,
                    partition=i % partitioner.n_partitions,
                    state_machine=KeyValueStore(),
                    name=f"fz-replica{i}",
                    # Population cases need end-to-end acknowledgements;
                    # the base-workload commands carry no client and are
                    # unaffected by the respond flag either way.
                    respond=config.population_sessions > 0,
                    checkpoint_interval=config.checkpoint_interval,
                    disk_bandwidth=DISK_BANDWIDTH_BYTES_PER_S,
                )
            )
    population = admission_oracles = None
    if config.population_sessions:
        # The gateways join mrp.proposers *last*, which is what lets the
        # overload schedule aim crashes at them by index.
        population = ClientPopulation(
            mrp,
            RangePartitioner(max(1, config.n_groups - 1)),
            config.population_sessions,
            ConstantRate(config.population_rate),
            name="fz-pop",
            stop_at=0.8 * config.duration,
            admission=AdmissionPolicy(
                max_inflight=config.admission_inflight,
                max_queue=config.admission_queue,
            ),
        ).start()
        admission_oracles = AdmissionOracles().attach(mrp.sim)
    return (mrp, partition, loss, oracles, learners, proposers, replicas,
            population, admission_oracles)


def _install_workload(config: CaseConfig, mrp: MultiRingPaxos, proposers) -> None:
    """Schedule the client traffic: uniform submission times over the
    first 80% of the run, groups drawn per message. Reproduced exactly
    from ``workload_seed`` on replay.

    Replica cases carry :class:`~repro.smr.statemachine.Command` payloads
    instead of opaque strings — mostly single-key inserts to a partition
    group, with an occasional all-partition range query through g_all —
    so checkpointed state machines actually accumulate state to restore.
    """
    wrng = random.Random(config.workload_seed)
    window = 0.8 * config.duration
    partitioner = RangePartitioner(max(1, config.n_groups - 1)) if config.replicas else None
    for pi, proposer in enumerate(proposers):
        for i in range(config.messages_per_proposer):
            t = 0.02 + wrng.random() * window
            if partitioner is None:
                group = wrng.randrange(config.n_groups)
                payload: object = f"p{pi}-m{i}"
            elif wrng.random() < 0.15:
                group = partitioner.all_group
                payload = Command(op="query", args=(0, partitioner.key_space - 1),
                                  req_id=i, padding=config.value_size)
            else:
                key = wrng.randrange(partitioner.key_space)
                group = partitioner.group_of_key(key)
                payload = Command(op="insert", args=(key,),
                                  req_id=i, padding=config.value_size)
            mrp.sim.at(t, proposer.multicast, group, payload, config.value_size)


def _undelivered(
    config: CaseConfig, oracles: SafetyOracles, learners, replicas=()
) -> dict[str, list]:
    """Messages each learner still owes: proposed to a subscribed group
    but not yet delivered. Replica-owned learners owe the messages of
    their subscription ({g_i, g_all}) like any other learner. Empty
    dict == liveness satisfied."""
    proposed = oracles.proposed_messages
    owed = [(learner.name, subs) for subs, learner in zip(config.learners, learners)]
    owed += [
        (replica.learner.name, replica.partitioner.groups_for_replica(replica.partition))
        for replica in replicas
    ]
    missing: dict[str, list] = {}
    for name, subs in owed:
        want = [m for m in proposed if m[2] in subs]
        have = oracles.delivered_by(name)
        miss = [m for m in want if m not in have]
        if miss:
            missing[name] = miss
    return missing


def _restart_laggards(
    runner: ScheduleRunner, frontiers: dict[int, int], accept_base: dict[str, tuple]
) -> dict[str, str]:
    """Restarted roles whose recovery has not converged yet.

    A restarted learner (or checkpoint-restored replica) converges when
    every subscribed ring learner has caught up to the ring's decided
    frontier as of the forced heal. A restarted acceptor converges when
    it accepts again (its ``accepts`` counter moves past the heal-time
    baseline — λ-skips guarantee ring traffic), and is judged only while
    its ring's layout names it an in-ring acceptor: one a takeover
    promoted to coordinator or left out accepts nothing more.
    Coordinators and proposers keep volatile state across restarts and
    need no recovery, and the plain liveness check already covers them.
    """
    lag: dict[str, str] = {}
    for target in sorted(runner.restarted):
        kind = target.partition(":")[0]
        if kind == "acceptor":
            # The object the target named at the heal: a takeover may
            # hand its index to another acceptor since.
            role, base = accept_base.get(target, (None, 0))
        else:
            role = runner.resolve(target)
        if role is None or role.crashed:
            continue
        if kind in ("learner", "replica"):
            learner = role.learner if kind == "replica" else role
            for ring_id, frontier in sorted(frontiers.items()):
                ring_learner = learner.ring_learners.get(ring_id)
                if ring_learner is not None and ring_learner.next_instance < frontier:
                    lag[target] = (
                        f"ring {ring_id} position {ring_learner.next_instance} "
                        f"below the heal-time decided frontier {frontier}"
                    )
                    break
        elif kind == "acceptor":
            # A ring retired by a completed merge stops deciding (its skip
            # manager is down), so its restarted acceptors legitimately
            # never accept again — there is nothing left to converge to.
            handle = runner.mrp.rings.get(int(target.split(":")[1]))
            if handle is None or handle.retired:
                continue
            if role.node.name not in handle.config.acceptors[:-1]:
                continue
            if role.accepts.value <= base:
                lag[target] = (
                    f"no accepts since restart (stuck at {role.accepts.value:g})"
                )
    return lag


def run_case(
    seed: int,
    config: CaseConfig | None = None,
    schedule: Schedule | None = None,
    grace: float = 6.0,
    duration: float | None = None,
    profile: str = "default",
) -> CaseResult:
    """Run one fuzz case to a verdict; never raises on a violation.

    With only ``seed``, the configuration and schedule are drawn from it
    (``profile`` selects the config/schedule mix, and travels inside the
    config so replays reproduce it). Passing ``config``/``schedule``
    explicitly pins them (replay and shrinking). ``grace`` bounds the
    liveness wait after the forced heal; the run stops early once every
    owed message is delivered and every restarted role has recovered.
    """
    rng = random.Random(seed)
    if config is None:
        config = draw_config(rng, profile=profile)
    if duration is not None:
        config.duration = duration
    (mrp, partition, loss, oracles, learners, proposers, replicas,
     population, admission_oracles) = _build(config)

    def events_checked() -> int:
        extra = admission_oracles.events_checked if admission_oracles else 0
        return oracles.events_checked + extra

    if schedule is None:
        topology = topology_of(mrp, replicas=len(replicas))
        schedule = generate_schedule(rng, topology, config.duration, config.profile)
    extra_roles = {f"replica:{i}": replica for i, replica in enumerate(replicas)}
    runner = ScheduleRunner(mrp, partition, loss, extra_roles=extra_roles).install(schedule)
    _install_workload(config, mrp, proposers)
    try:
        mrp.run(until=config.duration)
        # Epilogue, outside the shrinkable schedule: whatever the faults
        # did, the network is made whole before liveness is judged.
        runner.heal_everything()
        # Liveness-after-restart baselines: every ring's decided frontier
        # and every restarted acceptor with its accept count, as of the heal.
        frontiers = oracles.ring_frontiers()
        accept_base = {
            target: (role, role.accepts.value)
            for target in runner.restarted
            if target.startswith("acceptor:")
            and (role := runner.resolve(target)) is not None
        }
        deadline = config.duration + grace
        now = mrp.sim.now
        while True:
            now = min(now + 0.5, deadline)
            mrp.run(until=now)
            missing = _undelivered(config, oracles, learners, replicas)
            laggards = _restart_laggards(runner, frontiers, accept_base)
            if not missing and not laggards:
                break
            if now >= deadline:
                if laggards:
                    target, why = next(iter(sorted(laggards.items())))
                    raise OracleViolation(
                        "liveness-after-restart",
                        f"{len(laggards)} restarted role(s) not recovered "
                        f"{grace:g}s after heal (e.g. {target}: {why})",
                        time=mrp.sim.now,
                        source=target,
                        context={"laggards": dict(sorted(laggards.items()))},
                    )
                learner, owed = next(iter(sorted(missing.items())))
                raise OracleViolation(
                    "liveness",
                    f"{sum(len(v) for v in missing.values())} proposed messages "
                    f"undelivered {grace:g}s after heal "
                    f"(e.g. {learner} missing {owed[:3]})",
                    time=mrp.sim.now,
                    source=learner,
                    context={"missing": {k: v[:10] for k, v in missing.items()}},
                )
        oracles.check_final()
    except OracleViolation as violation:
        return CaseResult(
            seed=seed, config=config, schedule=schedule, ok=False,
            oracle=violation.oracle, message=str(violation),
            events_checked=events_checked(),
        )
    return CaseResult(
        seed=seed, config=config, schedule=schedule, ok=True,
        events_checked=events_checked(),
    )


def shrink(result: CaseResult, budget: int = 150, grace: float = 6.0) -> tuple[Schedule, int]:
    """Greedily minimize a failing schedule; returns (schedule, reruns).

    Repeatedly re-runs the case with one step removed (scanning back to
    front) and keeps any removal that still fails with the *same* oracle.
    Loops until a full pass removes nothing or the rerun budget is spent.
    The result is 1-minimal w.r.t. single-step removal, and every kept
    intermediate is itself a replayable failing schedule.
    """
    if result.ok:
        raise ValueError("can only shrink a failing case")
    current = result.schedule
    reruns = 0
    progress = True
    while progress and reruns < budget:
        progress = False
        i = len(current) - 1
        while i >= 0 and reruns < budget:
            candidate = current.without(i)
            reruns += 1
            res = run_case(result.seed, config=result.config, schedule=candidate, grace=grace)
            if not res.ok and res.oracle == result.oracle:
                current = candidate
                progress = True
            i -= 1
    return current, reruns


# ----------------------------------------------------------------------
# Failure files
# ----------------------------------------------------------------------
def failure_to_dict(result: CaseResult, shrunk: Schedule | None = None) -> dict:
    """The JSON payload of one minimized failure."""
    final = shrunk if shrunk is not None else result.schedule
    return {
        "version": FORMAT_VERSION,
        "seed": result.seed,
        "oracle": result.oracle,
        "message": result.message,
        "original_steps": len(result.schedule),
        "shrunk_steps": len(final),
        "config": asdict(result.config),
        "schedule": final.as_dict(),
    }


def load_failure(path: str | Path) -> tuple[int, CaseConfig, Schedule]:
    """Read a failure file back into (seed, config, schedule)."""
    data = json.loads(Path(path).read_text())
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported failure-file version {data.get('version')!r}")
    return (
        data["seed"],
        CaseConfig.from_dict(data["config"]),
        Schedule.from_dict(data["schedule"]),
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def fuzz_main(argv: list[str] | None = None) -> int:
    """``python -m repro fuzz`` — run seeded fuzz cases or replay one."""
    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description="Deterministic simulation fuzzing with safety oracles.",
    )
    parser.add_argument("--runs", type=int, default=25,
                        help="number of seeded cases (default 25)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; case i runs with seed+i (default 0)")
    parser.add_argument("--duration", type=float, default=None,
                        help="override the per-case fault/workload window (s)")
    parser.add_argument("--profile", default="default", choices=tuple(PROFILES),
                        help="fault/config mix: " + "; ".join(
                            f"'{name}' ({text})" for name, (_, text) in PROFILES.items()))
    parser.add_argument("--grace", type=float, default=6.0,
                        help="liveness grace after forced heal (simulated s)")
    parser.add_argument("--out", default="fuzz-failures",
                        help="directory for minimized failure JSON files")
    parser.add_argument("--replay", metavar="FILE", default=None,
                        help="replay one failure file instead of fuzzing")
    parser.add_argument("--shrink-budget", type=int, default=150,
                        help="max reruns spent minimizing each failure")
    parser.add_argument("--no-shrink", action="store_true",
                        help="save failures without minimizing")
    parser.add_argument("--time-budget", type=float, default=None,
                        help="stop starting new cases after this many wall seconds")
    parser.add_argument("--jobs", default="1",
                        help="worker processes for the seed sweep: a number or "
                             "'auto' (CPU count); 1 runs in-process (default)")
    parser.add_argument("--cache", action="store_true",
                        help="memoize case verdicts in results/.cache "
                             "(content-addressed by case spec + code version)")
    args = parser.parse_args(argv)

    from ..parallel import ResultCache, Spec, parse_jobs, run_specs

    try:
        jobs = parse_jobs(args.jobs)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.replay is not None:
        seed, config, schedule = load_failure(args.replay)
        result = run_case(seed, config=config, schedule=schedule,
                          grace=args.grace, duration=args.duration)
        if result.ok:
            print(f"replay {args.replay}: schedule no longer fails")
            return 0
        print(f"replay {args.replay}: {result.message}")
        for line in schedule.describe().splitlines():
            print(f"  {line}")
        return 1

    # The seed sweep: each case is one picklable spec; the executor runs
    # them in-process (--jobs 1), or fans them out across workers. The
    # spec addresses run_case through the module attribute, so verdicts
    # are identical either way.
    specs = [
        Spec(
            fn="repro.check.driver:run_case",
            kwargs={"seed": args.seed + i, "grace": args.grace,
                    "duration": args.duration, "profile": args.profile},
            label=f"fuzz:seed{args.seed + i}",
        )
        for i in range(args.runs)
    ]

    def print_verdict(index: int, status: str, result) -> None:
        if status == "error":
            print(f"seed {args.seed + index}: ERROR {result}")
            return
        cached = " (cached)" if status == "cached" else ""
        if result.ok:
            print(f"seed {result.seed}: ok ({len(result.schedule)} fault steps, "
                  f"{result.events_checked} events checked){cached}")
        else:
            print(f"seed {result.seed}: FAIL {result.message}{cached}")

    # Workers finish out of order; verdict lines are buffered and flushed
    # in seed order so the log reads identically for any --jobs. Tasks are
    # dispatched in spec order (a time budget only truncates the tail), so
    # completed indices always form a prefix and the buffer fully drains.
    buffered: dict[int, tuple[str, object]] = {}
    flushed = [0]

    def report(index: int, status: str, result) -> None:
        buffered[index] = (status, result)
        while flushed[0] in buffered:
            print_verdict(flushed[0], *buffered.pop(flushed[0]))
            flushed[0] += 1

    results = run_specs(
        specs,
        jobs=jobs,
        cache=ResultCache() if args.cache else None,
        time_budget=args.time_budget,
        on_result=report,
    )
    completed = sum(1 for r in results if r is not None)
    if completed < len(specs) and args.time_budget is not None:
        print(f"time budget ({args.time_budget:g}s) reached after {completed} runs")

    # Failure artifacts and shrinking stay in the parent: shrink re-runs
    # cases serially right here, and only the parent touches --out.
    failures = 0
    for result in results:
        if result is None or result.ok:
            continue
        failures += 1
        shrunk = result.schedule
        if not args.no_shrink:
            shrunk, reruns = shrink(result, budget=args.shrink_budget, grace=args.grace)
            print(f"  seed {result.seed}: shrunk {len(result.schedule)} -> "
                  f"{len(shrunk)} steps ({reruns} reruns)")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path = out_dir / f"seed{result.seed}.json"
        out_path.write_text(json.dumps(failure_to_dict(result, shrunk), indent=2) + "\n")
        print(f"  wrote {out_path}")
        for line in shrunk.describe().splitlines():
            print(f"    {line}")
    print(f"fuzz: {completed} runs, {failures} failures")
    return 1 if failures else 0
