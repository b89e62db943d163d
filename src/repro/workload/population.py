"""Aggregate open-loop client tier: millions of sessions, no per-session actor.

The per-actor client stack (`smr/client.py` + one `OpenLoopGenerator`
each) spends one node, one proposer, and one kernel timer per client —
simulating even tens of thousands of clients dominates wall clock before
the protocol is stressed (8 075 simulated sessions per wall second at
50 000 sessions, against ~15x that here: docs/simulation.md, "Client
populations"). A :class:`ClientPopulation` replaces all of that with
flyweight state, and ``tests/property/test_population_properties.py``
holds its arrivals to n independent per-actor generators:

* **Arrivals** come from one compound arrival process per population
  (:class:`BatchArrivalProcess`): a single self-rescheduling tick draws a
  Poisson-distributed batch of arrivals per interval from a dedicated
  ``sim/rng.py`` stream, so kernel events scale with the *rate*, not the
  session count, and traces are byte-deterministic per seed.
* **Sessions** are just integer ids. Per-session state (outstanding
  request, retry deadline, failover target) lives in flat dicts keyed by
  session id — no per-session ``Process``, no per-session timers.
* **Timeouts** use one wheel: pending requests hash into coarse time
  buckets and a single periodic scan expires whole buckets, amortizing
  timeout bookkeeping across every in-flight request.
* **Requests** flow through the same ``smr`` request path as
  :class:`~repro.smr.client.SmrClient`: commands are built against a
  :class:`~repro.smr.partitioning.RangePartitioner` (Zipf/hot-key
  single-partition ops plus multi-partition range queries) and
  multicast through two shared gateway proposers — a primary and a
  spare. A timed-out request retries (same request id, so late
  duplicates stay idempotent at the client); repeated timeouts fail the
  session over to the spare gateway. Gateways can carry an
  :class:`~repro.core.admission.AdmissionPolicy`, giving the population
  end-to-end backpressure: shed submissions surface as client-side
  retries instead of unbounded queues.

End-to-end latency (first issue to final concerned-partition response)
is recorded in a :class:`~repro.metrics.LatencyHistogram`, whose
``quantiles``/``cdf`` API feeds the p50/p99/p999 reports of
``python -m repro clients``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable

from ..core.admission import AdmissionPolicy
from ..core.deployment import MultiRingPaxos
from ..sim.process import Process
from ..sim.simulator import Simulator
from ..smr.partitioning import RangePartitioner
from ..smr.replica import Response
from ..smr.statemachine import Command
from .generator import IDLE_BACKOFF_CAP, IDLE_POLL
from .rates import RateSchedule, next_change_after

__all__ = ["BatchArrivalProcess", "ClientPopulation", "SessionMix", "poisson"]

# Knuth multiplicative-hash constant: spreads consecutive Zipf ranks
# across the key space (and therefore across partitions) so hot keys do
# not all land in partition 0.
_RANK_SPREAD = 2654435761

# Longest gap between two arrival batches, however low the rate.
MAX_INTERVAL = 10e-3

# Pending-request entries are flat lists (cheaper than objects at
# million-session scale); these name the slots.
_SID, _ISSUED, _AWAITING, _ATTEMPT, _OP, _ARGS, _GROUP, _DEADLINE, _SEEN = range(9)


def poisson(rng, mean: float) -> int:
    """A Poisson(mean) draw from ``rng``, deterministic per stream state.

    Knuth's product method below 64 (one uniform per unit of mean); a
    rounded normal approximation above, where the product method's draw
    count — and error — would both grow without bound.
    """
    if mean <= 0.0:
        return 0
    if mean < 64.0:
        bound = math.exp(-mean)
        k = 0
        product = rng.random()
        while product > bound:
            k += 1
            product *= rng.random()
        return k
    return max(0, round(rng.gauss(mean, mean ** 0.5)))


class BatchArrivalProcess(Process):
    """Compound arrival process: one tick per batch, Poisson batch sizes.

    Calls ``on_arrival()`` a Poisson-distributed number of times per
    tick, with tick spacing adapted so the expected batch size stays
    near ``batch_target``. The aggregate is statistically equivalent to
    the superposition of many independent open-loop sources at the same
    total rate (arrival *counts* per window match within sampling
    noise), at a kernel-event cost of O(rate / batch_target) instead of
    O(sessions). Zero-rate phases sleep to the schedule's next
    transition (or back off geometrically), like
    :class:`~repro.workload.generator.OpenLoopGenerator`.
    """

    def __init__(
        self,
        sim: Simulator,
        on_arrival: Callable[[], None],
        schedule: RateSchedule,
        name: str = "arrivals",
        batch_target: float = 64.0,
        min_interval: float = 100e-6,
        stop_at: float | None = None,
    ) -> None:
        super().__init__(sim, name)
        if batch_target <= 0:
            raise ValueError("batch_target must be positive")
        if not 0 < min_interval <= MAX_INTERVAL:
            raise ValueError(f"need 0 < min_interval <= {MAX_INTERVAL}")
        self.on_arrival = on_arrival
        self.schedule = schedule
        self.batch_target = batch_target
        self.min_interval = min_interval
        self.stop_at = stop_at
        self.arrivals = 0
        self._rng = sim.random.get(f"workload.{name}")
        self._running = False
        self._idle_backoff = 0.0

    def start(self, delay: float = 0.0) -> "BatchArrivalProcess":
        """Begin drawing batches ``delay`` seconds from now; returns self."""
        self._running = True
        self.sim.schedule(delay, self._tick)
        return self

    def stop(self) -> None:
        """Stop generating (the pending tick becomes a no-op)."""
        self._running = False

    def _tick(self) -> None:
        if not self._running or self.crashed:
            return
        now = self.sim.now
        if self.stop_at is not None and now >= self.stop_at:
            self._running = False
            return
        rate = self.schedule.rate_at(now)
        if rate <= 0:
            wake = next_change_after(self.schedule, now)
            if wake is not None and wake > now:
                self._idle_backoff = 0.0
                delay = wake - now
            else:
                delay = self._idle_backoff or IDLE_POLL
                self._idle_backoff = min(delay * 2.0, IDLE_POLL * IDLE_BACKOFF_CAP)
            self.sim.schedule(delay, self._tick)
            return
        self._idle_backoff = 0.0
        dt = min(max(self.batch_target / rate, self.min_interval), MAX_INTERVAL)
        k = poisson(self._rng, rate * dt)
        self.arrivals += k
        for _ in range(k):
            self.on_arrival()
        self.sim.schedule(dt, self._tick)


@dataclass(frozen=True, slots=True)
class SessionMix:
    """Operation and key mix for a :class:`ClientPopulation`.

    Fractions: ``insert_fraction`` + ``delete_fraction`` of arrivals are
    single-key writes; the rest are range queries, of which
    ``multi_partition_fraction`` span one partition width (hitting two
    partitions through g_all) and the remainder are single-key lookups.
    ``zipf_s`` > 0 draws keys Zipf(s)-distributed over ``hot_keys``
    ranks, spread across the key space; 0 means uniform over the whole
    key space.
    """

    insert_fraction: float = 0.65
    delete_fraction: float = 0.10
    multi_partition_fraction: float = 0.20
    zipf_s: float = 0.0
    hot_keys: int = 10_000

    def __post_init__(self) -> None:
        # Each guard is written so that NaN is rejected too.
        if not (self.insert_fraction >= 0 and self.delete_fraction >= 0):
            raise ValueError("operation fractions must be non-negative")
        if self.insert_fraction + self.delete_fraction > 1.0:
            raise ValueError("insert + delete fractions exceed 1")
        if not 0.0 <= self.multi_partition_fraction <= 1.0:
            raise ValueError("multi_partition_fraction must be in [0, 1]")
        if not self.zipf_s >= 0:
            raise ValueError("zipf_s must be non-negative")
        if self.hot_keys < 1:
            raise ValueError("hot_keys must be at least 1")


class ClientPopulation(Process):
    """``n_sessions`` flyweight open-loop clients behind two gateways."""

    def __init__(
        self,
        mrp: MultiRingPaxos,
        partitioner: RangePartitioner,
        n_sessions: int,
        schedule: RateSchedule,
        mix: SessionMix | None = None,
        name: str = "pop0",
        request_timeout: float = 0.25,
        max_retries: int = 3,
        failover_after: int = 2,
        stop_at: float | None = None,
        admission: AdmissionPolicy | None = None,
        record_arrivals: bool = False,
    ) -> None:
        super().__init__(mrp.sim, name)
        if n_sessions < 1:
            raise ValueError("need at least one session")
        if request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if max_retries < 0 or failover_after < 1:
            raise ValueError("max_retries must be >= 0 and failover_after >= 1")
        self.mrp = mrp
        self.partitioner = partitioner
        self.n_sessions = n_sessions
        self.mix = mix if mix is not None else SessionMix()
        self.request_timeout = request_timeout
        self.max_retries = max_retries
        self.failover_after = failover_after
        # Two shared gateway proposers: all sessions multicast through the
        # primary until timeouts push them to the spare. Both join
        # ``mrp.proposers``, so fault schedules crash them like any other
        # proposer.
        self.primary = mrp.add_proposer(name=f"{name}-gw0", admission=admission)
        self.spare = mrp.add_proposer(name=f"{name}-gw1", admission=admission)
        self.primary.node.register("smr.client", self._on_response)
        self.spare.node.register("smr.client", self._on_response)
        self.metrics = mrp.metrics.child(role="population", node=name)
        self.arrivals = self.metrics.counter("arrivals")
        self.skipped_busy = self.metrics.counter("skipped_busy")
        self.requests = self.metrics.counter("requests")
        self.completions = self.metrics.counter("completions")
        self.timeouts = self.metrics.counter("timeouts")
        self.retries = self.metrics.counter("retries")
        self.failovers = self.metrics.counter("failovers")
        self.abandoned = self.metrics.counter("abandoned")
        self.shed_submissions = self.metrics.counter("shed_submissions")
        self.request_latency = self.metrics.histogram("request_latency")
        self.arrival_process = BatchArrivalProcess(
            mrp.sim, self._on_arrival, schedule,
            name=f"{name}.arrivals", stop_at=stop_at,
        )
        self.record_arrivals = record_arrivals
        self.arrival_trace: list[tuple[float, int]] = []
        self._rng = mrp.sim.random.get(f"population.{name}")
        self._next_req = 0
        # Flyweight per-session state, all sparse (busy/failed-over
        # sessions only): sid -> outstanding req_id, and the set of sids
        # routed to the spare gateway.
        self._session_req: dict[int, int] = {}
        self._failover: set[int] = set()
        self._pending: dict[int, list] = {}
        # Timeout wheel: deadline bucket -> [req_id]. One periodic scan
        # expires whole buckets; entries whose deadline moved (retry) or
        # vanished (completion) are skipped lazily.
        self._gran = request_timeout / 4.0
        self._wheel: dict[int, list[int]] = {}
        self._last_bucket = -1
        self._scanning = False
        self._zipf_cum: list[float] | None = None
        if self.mix.zipf_s > 0:
            cum, total = [], 0.0
            for rank in range(self.mix.hot_keys):
                total += (rank + 1) ** -self.mix.zipf_s
                cum.append(total)
            self._zipf_cum = cum

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, delay: float = 0.0) -> "ClientPopulation":
        """Begin drawing arrivals ``delay`` seconds from now; returns self."""
        self.arrival_process.start(delay)
        return self

    def stop(self) -> None:
        """Stop new arrivals (outstanding requests still retry/complete)."""
        self.arrival_process.stop()

    @property
    def outstanding(self) -> int:
        """Requests issued but not yet completed or abandoned."""
        return len(self._pending)

    def quantiles(self, qs: list[float]) -> list[float]:
        """End-to-end latency quantiles (fractions in [0, 1])."""
        return self.request_latency.quantiles(qs)

    # ------------------------------------------------------------------
    # Arrivals and the request mix
    # ------------------------------------------------------------------
    def _on_arrival(self) -> None:
        self.arrivals.value += 1
        sid = self._rng.randrange(self.n_sessions)
        if self.record_arrivals:
            self.arrival_trace.append((self.sim.now, sid))
        if sid in self._session_req:
            # The session already has a request in flight: open-loop
            # sessions hold one outstanding slot, so this arrival is
            # dropped (counted — the offered load is still visible).
            self.skipped_busy.value += 1
            return
        op, args, group, awaiting = self._draw_request()
        req_id = self._next_req
        self._next_req += 1
        entry = [sid, self.sim.now, awaiting, 0, op, args, group, 0.0, None]
        self._pending[req_id] = entry
        self._session_req[sid] = req_id
        self.requests.value += 1
        self._submit(req_id, entry)

    def _draw_request(self) -> tuple[str, tuple, int, int]:
        mix = self.mix
        u = self._rng.random()
        if u < mix.insert_fraction:
            key = self._draw_key()
            return "insert", (key,), self.partitioner.group_of_key(key), 1
        if u < mix.insert_fraction + mix.delete_fraction:
            key = self._draw_key()
            return "delete", (key,), self.partitioner.group_of_key(key), 1
        part = self.partitioner
        if self._rng.random() < mix.multi_partition_fraction and part.n_partitions > 1:
            # A range one partition wide starting at a drawn key: spans
            # two partitions (unless clipped at the top), so it rides
            # g_all and must hear from every intersecting partition.
            kmin = self._draw_key()
            kmax = min(kmin + part.key_space // part.n_partitions, part.key_space - 1)
            group = part.group_of_range(kmin, kmax)
            awaiting = sum(
                1 for p in range(part.n_partitions) if part.intersects(p, kmin, kmax)
            ) if group == part.all_group else 1
            return "query", (kmin, kmax), group, awaiting
        key = self._draw_key()
        return "query", (key, key), part.group_of_key(key), 1

    def _draw_key(self) -> int:
        if self._zipf_cum is None:
            return self._rng.randrange(self.partitioner.key_space)
        u = self._rng.random() * self._zipf_cum[-1]
        rank = bisect.bisect_right(self._zipf_cum, u)
        return (rank * _RANK_SPREAD) % self.partitioner.key_space

    # ------------------------------------------------------------------
    # Issue, timeout, retry, failover
    # ------------------------------------------------------------------
    def _submit(self, req_id: int, entry: list) -> None:
        gateway = self.spare if entry[_SID] in self._failover else self.primary
        command = Command(
            op=entry[_OP],
            args=entry[_ARGS],
            client=gateway.node.name,
            req_id=req_id,
        )
        status = gateway.submit(entry[_GROUP], command, command.size)
        if status == "shed":
            # Nothing was sent (and no seq consumed) — the timeout wheel
            # turns the rejection into a client-side delayed retry.
            self.shed_submissions.value += 1
        deadline = self.sim.now + self.request_timeout
        entry[_DEADLINE] = deadline
        bucket = int(deadline / self._gran) + 1
        self._wheel.setdefault(bucket, []).append(req_id)
        if not self._scanning:
            self._scanning = True
            self._last_bucket = int(self.sim.now / self._gran)
            self.sim.schedule(self._gran, self._scan)

    def _scan(self) -> None:
        now = self.sim.now
        target = int(now / self._gran)
        for bucket in range(self._last_bucket + 1, target + 1):
            for req_id in self._wheel.pop(bucket, ()):
                entry = self._pending.get(req_id)
                if entry is None or entry[_DEADLINE] > now:
                    continue  # completed, or re-armed by a retry
                self._expire(req_id, entry)
        self._last_bucket = target
        if self._pending or self.arrival_process._running:
            self.sim.schedule(self._gran, self._scan)
        else:
            self._scanning = False

    def _expire(self, req_id: int, entry: list) -> None:
        self.timeouts.value += 1
        entry[_ATTEMPT] += 1
        if entry[_ATTEMPT] > self.max_retries:
            self.abandoned.value += 1
            del self._pending[req_id]
            self._session_req.pop(entry[_SID], None)
            return
        if entry[_ATTEMPT] >= self.failover_after and entry[_SID] not in self._failover:
            self._failover.add(entry[_SID])
            self.failovers.value += 1
        self.retries.value += 1
        # Same req_id: a late response to the earlier attempt completes
        # the request, and replica-side duplicates of the command are
        # absorbed by the state machine exactly like SmrClient retries.
        self._submit(req_id, entry)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _on_response(self, src: str, msg) -> None:
        if not isinstance(msg, Response):
            return
        entry = self._pending.get(msg.req_id)
        if entry is None:
            return  # late duplicate of a completed/abandoned request
        if entry[_AWAITING] > 1 or entry[_SEEN] is not None:
            seen = entry[_SEEN]
            if seen is None:
                seen = entry[_SEEN] = set()
            if msg.partition in seen:
                return
            seen.add(msg.partition)
        entry[_AWAITING] -= 1
        if entry[_AWAITING] > 0:
            return
        del self._pending[msg.req_id]
        self._session_req.pop(entry[_SID], None)
        self.completions.value += 1
        self.request_latency.record(max(0.0, self.sim.now - entry[_ISSUED]))
        probe = self.sim.probe
        if probe is not None and "population.complete" in probe.subscribers:
            probe.emit(
                "population.complete", self.sim.now, self.name,
                req_id=msg.req_id, session=entry[_SID], op=entry[_OP],
            )
