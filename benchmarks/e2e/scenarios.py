"""The five workloads, built on the public API of ``repro``.

Each workload is a class. Constructing it builds the deployment, the
generators and the hooks (the *set-up*); :meth:`advance` runs every
simulator to its end (the part whose wall time is measured); then
``events``, ``delivered``, ``digest``, ``attempted`` and ``failed`` say
what happened. The same object serves the stats rep (under a
``Recorder``, which :meth:`advance` tells about each segment through
``mark``) and the timed reps (bare). :meth:`advance` runs in chunks of
roughly 0.1-0.3 s of host time and calls ``pause`` after each, where the
harness stops its clock and runs a slice of the calibration kernel.

``seed`` feeds every ``Simulator``; sizes are constants. ``scale``
shortens the simulated durations and exists for the self-tests only.

Why these five (the one-line versions live in BENCHMARK.json):

* ``ring1_open`` — the single-ring baseline, bypassing ``repro.core``:
  the Figure 1 latency-vs-offered-rate curve at three fixed rates, the
  last above the coordinator's CPU capacity.
* ``rings4_disk_closed`` — Figure 5's DISK M-RP capacity run: four
  Recoverable rings, one learner each, closed loop. Disk-bound, the
  highest event rate, and the merge has nothing to do.
* ``merge_skew`` — Figures 6-10's regime: one learner merging four
  In-memory rings at skewed rates, so most instances are skips and
  latency is merge wait, not a resource.
* ``smr_failover`` — the partitioned key-value service behind 100 000
  flyweight sessions with admission control, losing ring 0's coordinator
  mid-run: the only workload where ``workload``, ``smr``, admission and
  the control plane work.
* ``fuzz_faults`` — ten fuzz cases over the five fault profiles under the
  full oracles: what CI spends its minutes on, and the only workload with
  ``check``/``obs`` on the timed path.
"""

from __future__ import annotations

import random
from typing import Callable

from repro import MultiRingConfig, MultiRingPaxos
from repro.calibration import mbps_to_bytes_per_s
from repro.check import draw_config, run_case
from repro.core.admission import AdmissionPolicy
from repro.metrics import MetricsRegistry
from repro.ringpaxos.builder import build_ring
from repro.sim.network import Network
from repro.sim.simulator import Simulator, observe_simulators
from repro.smr.kvstore import KeyValueStore
from repro.smr.partitioning import RangePartitioner
from repro.smr.replica import Replica
from repro.workload.generator import ClosedLoopGenerator, OpenLoopGenerator
from repro.workload.population import ClientPopulation, SessionMix
from repro.workload.rates import ConstantRate

Mark = Callable[[str, float, "float | None"], None]
Pause = Callable[[], None]


def run_in_chunks(sim: Simulator, end: float, chunks: int, pause: Pause | None) -> None:
    """Run ``sim`` to ``end`` in equal steps of simulated time."""
    for k in range(1, chunks + 1):
        sim.run(until=end if k == chunks else end * k / chunks)
        if pause is not None:
            pause()


class DeliveryLog:
    """Counts deliveries and folds their order into one number."""

    def __init__(self) -> None:
        self.count = 0
        self.digest = 0

    def on_deliver(self, where: int, value) -> None:
        self.count += 1
        self.digest = hash((self.digest, where, value.sender, value.seq))


class Ring1Open:
    """One In-memory ring, 8 KB values, open loop at three offered rates."""

    name = "ring1_open"
    LEGS_MBPS = (300, 650, 750)
    LATENCY_LEG = "650"  # below the knee
    SATURATION_LEG = "750"  # above the coordinator's CPU capacity
    VALUE_SIZE = 8192
    WARMUP, MEASURE, DRAIN = 0.15, 0.30, 0.10
    JITTER = 0.1  # interarrival jitter, so the seed shapes the input
    SLO_P99_MS = 5.0  # sim_slo_rate_mbps: the highest leg with p99 within it
    CHUNKS_PER_LEG = 3

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.warmup = self.WARMUP * scale
        self.stop = self.warmup + self.MEASURE * scale
        self.end = self.stop + self.DRAIN * scale
        self.log = DeliveryLog()
        self.legs = []
        for mbps in self.LEGS_MBPS:
            sim = Simulator(seed=seed)
            ring = build_ring(
                sim, Network(sim), on_deliver=self.log.on_deliver, metrics=MetricsRegistry()
            )
            proposer = ring.proposers[0]
            OpenLoopGenerator(
                sim,
                lambda p=proposer: p.multicast(None, self.VALUE_SIZE),
                ConstantRate(mbps_to_bytes_per_s(mbps) / self.VALUE_SIZE),
                stop_at=self.stop,
                jitter=self.JITTER,
            ).start()
            self.legs.append((str(mbps), sim, proposer))

    def advance(self, mark: Mark | None = None, pause: Pause | None = None) -> None:
        for label, sim, _ in self.legs:
            if mark is not None:
                mark(label, self.warmup, self.stop)
            run_in_chunks(sim, self.end, self.CHUNKS_PER_LEG, pause)

    @property
    def events(self) -> int:
        return sum(sim.events_executed for _, sim, _ in self.legs)

    @property
    def delivered(self) -> int:
        return self.log.count

    @property
    def digest(self) -> int:
        return self.log.digest

    @property
    def attempted(self) -> int:
        return int(sum(proposer.sent.value for _, _, proposer in self.legs))

    @property
    def failed(self) -> int:
        return self.attempted - self.delivered


class _MultiRing:
    """Shared shape of the workloads on one ``MultiRingPaxos`` deployment."""

    mrp: MultiRingPaxos
    log: DeliveryLog
    warmup: float
    stop: float
    end: float
    CHUNKS: int

    def advance(self, mark: Mark | None = None, pause: Pause | None = None) -> None:
        if mark is not None:
            mark("all", self.warmup, self.stop)
        run_in_chunks(self.mrp.sim, self.end, self.CHUNKS, pause)

    @property
    def events(self) -> int:
        return self.mrp.sim.events_executed

    @property
    def delivered(self) -> int:
        return self.log.count

    @property
    def digest(self) -> int:
        return self.log.digest

    @property
    def attempted(self) -> int:
        return int(sum(p.multicasts.value for p in self.mrp.proposers))

    @property
    def failed(self) -> int:
        return self.attempted - self.delivered


class Rings4DiskClosed(_MultiRing):
    """Four Recoverable rings, a learner and a closed-loop proposer each."""

    name = "rings4_disk_closed"
    N_RINGS = 4
    WINDOW = 48
    VALUE_SIZE = 8192
    WARMUP, MEASURE, DRAIN = 0.10, 0.25, 0.05
    CHUNKS = 8

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.warmup = self.WARMUP * scale
        self.stop = self.warmup + self.MEASURE * scale
        self.end = self.stop + self.DRAIN * scale
        self.log = DeliveryLog()
        self.config = MultiRingConfig(n_groups=self.N_RINGS, durable=True, seed=seed)
        self.mrp = mrp = MultiRingPaxos(self.config)
        # A closed loop draws no randomness; staggered starts let the seed
        # shape the run.
        stagger = mrp.sim.random.get("bench.e2e.stagger")
        generators = {}

        def on_deliver(group: int, value) -> None:
            self.log.on_deliver(group, value)
            generators[group].notify(value.seq)

        for group in range(self.N_RINGS):
            mrp.add_learner(groups=[group], on_deliver=on_deliver)
            proposer = mrp.add_proposer()
            generator = ClosedLoopGenerator(
                mrp.sim,
                lambda p=proposer, g=group: p.multicast(g, None, self.VALUE_SIZE),
                window=self.WINDOW,
                name=f"closedloop.g{group}",
            )
            generators[group] = generator
            generator.start(delay=stagger.random() * 2e-3)
            mrp.sim.at(self.stop, generator.stop)


class MergeSkew(_MultiRing):
    """One learner merging four In-memory rings at skewed open-loop rates."""

    name = "merge_skew"
    RATES = (3200, 1600, 800, 400)  # messages per second, per group
    VALUE_SIZE = 1024
    BURST, JITTER = 16, 0.3
    WARMUP, MEASURE, DRAIN = 0.15, 1.50, 0.10
    CHUNKS = 6

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.warmup = self.WARMUP * scale
        self.stop = self.warmup + self.MEASURE * scale
        self.end = self.stop + self.DRAIN * scale
        self.log = DeliveryLog()
        self.config = MultiRingConfig(
            n_groups=len(self.RATES), lambda_rate=9000.0, delta=1e-3, m=1, seed=seed
        )
        self.mrp = mrp = MultiRingPaxos(self.config)
        mrp.add_learner(groups=list(range(len(self.RATES))), on_deliver=self.log.on_deliver)
        for group, rate in enumerate(self.RATES):
            proposer = mrp.add_proposer()
            OpenLoopGenerator(
                mrp.sim,
                lambda p=proposer, g=group: p.multicast(g, None, self.VALUE_SIZE),
                ConstantRate(rate),
                stop_at=self.stop,
                jitter=self.JITTER,
                burst=self.BURST,
                name=f"openloop.g{group}",
            ).start()


class OrderedStore(KeyValueStore):
    """The key-value state machine, folding its apply order into a digest."""

    def __init__(self) -> None:
        super().__init__()
        self.digest = 0

    def apply(self, command):
        self.digest = hash((self.digest, command.op, command.args, command.req_id))
        return super().apply(command)


class SmrFailover(_MultiRing):
    """Partitioned KV service under a client population; ring 0 loses its
    coordinator at ``crash_at`` and is taken over by a spare."""

    name = "smr_failover"
    PARTITIONS = 3
    SESSIONS = 100_000
    RATE = 10_000.0  # requests per second, all sessions together
    REQUEST_TIMEOUT = 0.25
    CRASHED_RING = 0
    CRASH_AT, STOP = 0.6, 1.0
    CHUNKS = 8  # the second half is the drain, nearly idle

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.warmup = 0.0
        self.crash_at = self.CRASH_AT * scale
        self.stop = self.STOP * scale
        partitioner = RangePartitioner(self.PARTITIONS)
        self.config = MultiRingConfig(
            n_groups=partitioner.n_groups,
            seed=seed,
            auto_failover=True,
            spares_per_ring=1,
            suspect_timeout=0.05,
        )
        self.mrp = mrp = MultiRingPaxos(self.config)
        self.replicas = [
            Replica(mrp, partitioner, p, OrderedStore(), name=f"replica{p}", respond=True)
            for p in range(self.PARTITIONS)
        ]
        self.population = ClientPopulation(
            mrp,
            partitioner,
            self.SESSIONS,
            ConstantRate(self.RATE),
            mix=SessionMix(zipf_s=0.9, multi_partition_fraction=0.2),
            request_timeout=self.REQUEST_TIMEOUT,
            stop_at=self.stop,
            admission=AdmissionPolicy(max_inflight=512, max_queue=1024),
        ).start()
        # Drained through the whole retry budget, so abandonment is final.
        self.end = self.stop + (self.population.max_retries + 1) * self.REQUEST_TIMEOUT * scale
        mrp.sim.at(self.crash_at, mrp.crash_coordinator, self.CRASHED_RING)

    @property
    def delivered(self) -> int:
        return int(sum(replica.executed.value for replica in self.replicas))

    @property
    def digest(self) -> int:
        return hash(tuple(replica.state_machine.digest for replica in self.replicas))

    @property
    def attempted(self) -> int:
        return int(self.population.requests.value)

    @property
    def failed(self) -> int:
        return self.attempted - int(self.population.completions.value)


class FuzzFaults:
    """Two fuzz cases of each of the five fault profiles, under the full oracles.

    The deployment, the messages and the fault schedule of each case are
    drawn from a fixed case seed; ``seed`` sets the simulator's randomness
    within them (loss draws, WAN jitter, client arrivals), so the ten
    cases keep their shape and cost from seed to seed.
    """

    name = "fuzz_faults"
    # (profile, case seed). The overload cases carry most of the pooled
    # deliveries; theirs are seeds whose latency tail keeps its shape when
    # the simulator's seed changes (1031's p99 flips between one client
    # retry and two, 350 or 710 ms).
    CASES = (
        ("default", 1000), ("default", 1001),
        ("restart-heavy", 1010), ("restart-heavy", 1011),
        ("geo", 1020), ("geo", 1021),
        ("overload", 1030), ("overload", 1033),
        ("reconfig", 1040), ("reconfig", 1041),
    )

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.cases = []
        for profile, case_seed in self.CASES:
            config = draw_config(random.Random(case_seed), profile=profile)
            config.sim_seed = random.Random(seed * 7919 + case_seed).randrange(2**31)
            config.duration *= scale
            self.cases.append((case_seed, config))
        self.results = []
        self.simulators: list = []

    def advance(self, mark: Mark | None = None, pause: Pause | None = None) -> None:
        remove = observe_simulators(self.simulators.append)
        try:
            for case_seed, config in self.cases:
                if mark is not None:
                    mark(f"{config.profile}-{case_seed}", 0.0, None)
                self.results.append(run_case(case_seed, config=config))
                if pause is not None:
                    pause()
        finally:
            remove()

    @property
    def events(self) -> int:
        return sum(sim.events_executed for sim in self.simulators)

    @property
    def delivered(self) -> int:
        return sum(result.events_checked for result in self.results)

    @property
    def digest(self) -> int:
        return hash(tuple((r.ok, r.oracle, r.events_checked) for r in self.results))

    @property
    def attempted(self) -> int:
        return len(self.cases)

    @property
    def failed(self) -> int:
        return sum(1 for result in self.results if not result.ok)


WORKLOADS = {
    cls.name: cls for cls in (Ring1Open, Rings4DiskClosed, MergeSkew, SmrFailover, FuzzFaults)
}
