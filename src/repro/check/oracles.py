"""Passive safety oracles for Multi-Ring Paxos simulations.

A :class:`SafetyOracles` instance subscribes to the protocol-level probe
events (``repro.obs``) that proposers, learners and SMR replicas emit and
continuously verifies the atomic-multicast specification (paper,
Section II-B):

* **Agreement** — no two learners decide different items for the same
  (ring, consensus instance);
* **Integrity** — every delivered message was proposed, and each learner
  delivers it at most once;
* **Per-ring total order & gap-freedom** — each learner's decided stream
  covers logical instances contiguously from zero (data batches advance by
  one, skip ranges by their length), so the skip path can never leak a gap
  or a regression;
* **Cross-ring partial order** — learners with overlapping subscriptions
  deliver their common messages in the same relative order
  (:meth:`SafetyOracles.check_final`, since the property is over whole
  delivery histories);
* **Replica convergence** — SMR replicas of one partition apply their
  common commands in the same order (also in the final check);
* **Epoch monotonicity** — every role that reports a configuration epoch
  (``reconfig.epoch``) reports a non-decreasing sequence: a role going
  *back* to an older configuration would re-split the very group streams
  the cuts just stitched together;
* **Group FIFO across epochs** — each learner delivers each sender's
  messages of one group in strictly increasing seq order
  (:meth:`SafetyOracles.check_final`). Within one ring this is implied by
  ring order; the oracle's force is at reconfiguration boundaries, where
  a group's stream moves between rings and a lost, duplicated or
  reordered hand-off would show up as a seq regression or repeat.

The ``reconfig.drain`` probe is bookkeeping rather than a property: a
learner joining a ring mid-stream at the epoch's join instance J starts
its decided stream at J by design, so the probe re-bases that ring
learner's expected instance (otherwise ring order would read the
documented jump as a gap).

Oracles are *passive*: they subscribe to a probe bus, never schedule
simulation events, and therefore never perturb a run — an instrumented
simulation stays bit-for-bit identical to a bare one. Point-in-time
violations raise :class:`OracleViolation` immediately, from inside the
event that caused them, with enough context to replay the run.

Crash recovery makes replay legitimate: a restarted replica rolls its
learner back to a checkpoint and re-executes the suffix. The recovery
probes (``learner.rollback``, ``learner.rewind``, ``replica.restore``)
tell the oracles to rewind their logs to the same point, so the replayed
suffix is re-checked — against the agreement fingerprints recorded the
first time around, which a diverging replay would trip immediately. A
rollback may never move *forward*: that would let a learner skip the
very instances the oracles are watching.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from ..errors import ReproError
from ..obs.probe import (
    ADMISSION_DELAY,
    ADMISSION_SHED,
    LEARNER_DECIDE,
    LEARNER_DELIVER,
    LEARNER_REWIND,
    LEARNER_ROLLBACK,
    POPULATION_COMPLETE,
    PROPOSER_MULTICAST,
    RECONFIG_DRAIN,
    RECONFIG_EPOCH,
    REPLICA_APPLY,
    REPLICA_RESTORE,
    ProbeBus,
    ProbeEvent,
)
from ..sim.simulator import Simulator, observe_simulators

__all__ = ["AdmissionOracles", "OracleViolation", "SafetyOracles", "oracle_watch"]


class OracleViolation(ReproError):
    """A safety oracle detected a specification violation.

    Attributes
    ----------
    oracle:
        Which property broke: ``agreement``, ``integrity``, ``ring-order``,
        ``partial-order``, ``replica-order``, ``epoch-order``,
        ``group-fifo`` or (from the fuzz driver) ``liveness``.
    time:
        Simulated time of the offending event (0 for whole-history checks).
    source:
        The emitting process (learner/replica name), when applicable.
    context:
        Free-form details (instances, fingerprints, message ids) for the
        failure report.
    """

    def __init__(
        self,
        oracle: str,
        message: str,
        *,
        time: float = 0.0,
        source: str = "",
        context: dict | None = None,
    ) -> None:
        self.oracle = oracle
        self.time = time
        self.source = source
        self.context = dict(context or {})
        where = f" at {source}" if source else ""
        super().__init__(f"[{oracle}] t={time:.6f}{where}: {message}")


class SafetyOracles:
    """Continuously verify atomic-multicast safety over probe events.

    One instance watches one simulation (state is keyed by ring ids and
    process names, which are unique within a deployment). Attach with
    :meth:`attach` — it reuses the simulator's probe bus or installs one —
    or :meth:`subscribe` against an existing bus. Call :meth:`check_final`
    after the run for the whole-history properties.
    """

    def __init__(self) -> None:
        # (ring, instance) -> decided-item fingerprint (first decider wins).
        self._decided: dict[tuple[int, int], tuple] = {}
        # ring-learner process name -> next expected logical instance.
        self._next_instance: dict[str, int] = {}
        # Message identity is (sender, seq, group): per-ring proposers
        # each run their own seq counter, so (sender, seq) alone collides
        # across rings; group disambiguates (one ring orders a group).
        self._proposed: set[tuple[str, int, int]] = set()
        self._tracked_senders: set[str] = set()
        # learner process name -> ordered log of (sender, seq, group).
        self._delivery_log: dict[str, list[tuple[str, int, int]]] = {}
        self._delivered: dict[str, set[tuple[str, int, int]]] = {}
        # (partition, replica process name) -> ordered apply log.
        self._apply_log: dict[tuple[int, str], list[tuple[str, int, str]]] = {}
        # ring id -> highest decided logical frontier any learner reached.
        self._ring_frontier: dict[int, int] = {}
        # probe source -> highest configuration epoch it has reported.
        self._epochs: dict[str, int] = {}
        self.events_checked = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, sim: Simulator) -> "SafetyOracles":
        """Subscribe to ``sim``'s probe bus, installing one if absent."""
        if sim.probe is None:
            sim.attach_probe(ProbeBus())
        self.subscribe(sim.probe)
        return self

    def subscribe(self, bus: ProbeBus) -> "SafetyOracles":
        """Subscribe the oracle handlers to ``bus``; returns self."""
        bus.subscribe(self._on_propose, kind=PROPOSER_MULTICAST)
        bus.subscribe(self._on_decide, kind=LEARNER_DECIDE)
        bus.subscribe(self._on_deliver, kind=LEARNER_DELIVER)
        bus.subscribe(self._on_apply, kind=REPLICA_APPLY)
        bus.subscribe(self._on_rollback, kind=LEARNER_ROLLBACK)
        bus.subscribe(self._on_rewind, kind=LEARNER_REWIND)
        bus.subscribe(self._on_restore, kind=REPLICA_RESTORE)
        bus.subscribe(self._on_reconfig_epoch, kind=RECONFIG_EPOCH)
        bus.subscribe(self._on_reconfig_drain, kind=RECONFIG_DRAIN)
        return self

    # ------------------------------------------------------------------
    # Incremental checks (raise from inside the offending event)
    # ------------------------------------------------------------------
    def _on_propose(self, ev: ProbeEvent) -> None:
        self.events_checked += 1
        data = ev.data
        sender = data["sender"]
        self._proposed.add((sender, data["seq"], data["group"]))
        self._tracked_senders.add(sender)

    def _on_decide(self, ev: ProbeEvent) -> None:
        self.events_checked += 1
        data = ev.data
        ring = data["ring"]
        instance = data["instance"]
        fingerprint = data["item"]
        key = (ring, instance)
        previous = self._decided.get(key)
        if previous is None:
            self._decided[key] = fingerprint
        elif previous != fingerprint:
            raise OracleViolation(
                "agreement",
                f"ring {ring} instance {instance} decided twice with different items",
                time=ev.time,
                source=ev.source,
                context={"ring": ring, "instance": instance,
                         "first": previous, "second": fingerprint},
            )
        expected = self._next_instance.get(ev.source, 0)
        if instance != expected:
            kind = "gap" if instance > expected else "regression"
            raise OracleViolation(
                "ring-order",
                f"ring {ring} decided instance {instance}, expected {expected} ({kind})",
                time=ev.time,
                source=ev.source,
                context={"ring": ring, "instance": instance, "expected": expected},
            )
        frontier = instance + data["count"]
        self._next_instance[ev.source] = frontier
        if frontier > self._ring_frontier.get(ring, 0):
            self._ring_frontier[ring] = frontier

    def _on_deliver(self, ev: ProbeEvent) -> None:
        self.events_checked += 1
        learner = ev.source
        data = ev.data
        sender = data["sender"]
        message = (sender, data["seq"], data["group"])
        seen = self._delivered.setdefault(learner, set())
        if message in seen:
            raise OracleViolation(
                "integrity",
                f"message {message} delivered twice",
                time=ev.time,
                source=learner,
                context={"message": message},
            )
        seen.add(message)
        self._delivery_log.setdefault(learner, []).append(message)
        # The sender is a tracked proposer: the delivery must match a
        # proposal exactly. (Values injected below the proposer API —
        # hand-built streams in unit tests, interop feeds — have no
        # proposal record and are exempt.)
        if sender in self._tracked_senders and message not in self._proposed:
            raise OracleViolation(
                "integrity",
                f"delivered message {message} was never proposed",
                time=ev.time,
                source=learner,
                context={"message": message},
            )

    def _on_apply(self, ev: ProbeEvent) -> None:
        self.events_checked += 1
        data = ev.data
        self._apply_log.setdefault((data["partition"], ev.source), []).append(
            (data["client"], data["req_id"], data["op"])
        )

    # ------------------------------------------------------------------
    # Reconfiguration events
    # ------------------------------------------------------------------
    def _on_reconfig_epoch(self, ev: ProbeEvent) -> None:
        """A role adopted (or the manager installed) a configuration epoch.

        Epochs must be non-decreasing per source. Equal repeats are fine:
        the manager reports each epoch twice (operation start and done),
        and a learner may see the same cut from several rings.
        """
        self.events_checked += 1
        epoch = ev.data["epoch"]
        highest = self._epochs.get(ev.source, 0)
        if epoch < highest:
            raise OracleViolation(
                "epoch-order",
                f"{ev.data.get('role', 'role')} reported epoch {epoch} after "
                f"already reaching epoch {highest}",
                time=ev.time,
                source=ev.source,
                context={"epoch": epoch, "highest": highest},
            )
        self._epochs[ev.source] = epoch

    def _on_reconfig_drain(self, ev: ProbeEvent) -> None:
        """A learner joined a ring mid-stream at the epoch's join instance.

        The new ring learner starts consuming at the join cut J — by the
        remap protocol nothing of its groups was ordered on that ring
        below J — so the ring-order oracle's expectation is re-based to J
        rather than reading the documented jump as a gap. The probe fires
        before the ring learner's first decide, so re-basing here never
        races the check in :meth:`_on_decide`.
        """
        self.events_checked += 1
        self._next_instance[ev.data["ring_source"]] = ev.data["instance"]

    # ------------------------------------------------------------------
    # Recovery events: rewind the logs to the restored checkpoint
    # ------------------------------------------------------------------
    def _on_rollback(self, ev: ProbeEvent) -> None:
        """A ring learner rewound its decide position (replica recovery)."""
        self.events_checked += 1
        instance = ev.data["instance"]
        expected = self._next_instance.get(ev.source, 0)
        if instance > expected:
            raise OracleViolation(
                "ring-order",
                f"rollback to instance {instance} skips past the decided "
                f"position {expected}",
                time=ev.time,
                source=ev.source,
                context={"instance": instance, "expected": expected},
            )
        self._next_instance[ev.source] = instance
        # The replayed suffix re-enters _on_decide and is re-checked
        # against the agreement fingerprints recorded the first time.

    def _on_rewind(self, ev: ProbeEvent) -> None:
        """A multi-ring learner rewound its merged delivery sequence."""
        self.events_checked += 1
        count = ev.data["delivered"]
        log = self._delivery_log.get(ev.source, [])
        if count > len(log):
            raise OracleViolation(
                "integrity",
                f"rewind to delivery {count} but only {len(log)} were delivered",
                time=ev.time,
                source=ev.source,
                context={"count": count, "delivered": len(log)},
            )
        del log[count:]
        self._delivered[ev.source] = set(log)

    def _on_restore(self, ev: ProbeEvent) -> None:
        """A replica reloaded a checkpoint: truncate its apply log to it."""
        self.events_checked += 1
        count = ev.data["applied"]
        log = self._apply_log.get((ev.data["partition"], ev.source), [])
        if count > len(log):
            raise OracleViolation(
                "replica-order",
                f"checkpoint claims {count} applied commands but only "
                f"{len(log)} were observed",
                time=ev.time,
                source=ev.source,
                context={"count": count, "applied": len(log)},
            )
        del log[count:]

    # ------------------------------------------------------------------
    # Whole-history checks
    # ------------------------------------------------------------------
    def check_final(self) -> None:
        """Verify the order properties that span whole delivery histories.

        Raises :class:`OracleViolation` if two learners deliver their
        common messages in different relative orders (uniform partial
        order), a learner delivers one sender's messages of one group out
        of seq order (group FIFO — the property reconfiguration epochs
        must preserve across ring moves), or two replicas of one
        partition apply their common commands in different orders.
        """
        self._check_pairwise_common_order(
            self._delivery_log, oracle="partial-order", what="messages"
        )
        self._check_group_fifo()
        by_partition: dict[int, dict[str, list]] = {}
        for (partition, replica), log in self._apply_log.items():
            by_partition.setdefault(partition, {})[replica] = log
        for partition, logs in by_partition.items():
            self._check_pairwise_common_order(
                logs, oracle="replica-order", what=f"partition {partition} commands"
            )

    def _check_group_fifo(self) -> None:
        """Per learner, per (sender, group): delivered seqs strictly rise.

        Within one ring this follows from per-ring total order plus the
        coordinator's in-order ingestion. The oracle earns its keep at
        epoch boundaries: when a group moves rings, its old-ring values
        are all decided before the cuts and the sender's seq is bumped
        past its old ring's stream, so a hand-off that loses the boundary
        ordering — a new-ring value slipping in front of the drained
        suffix, or an old-ring value ordered again after the switch —
        reads as a seq repeat or regression here.
        """
        for learner, log in sorted(self._delivery_log.items()):
            last: dict[tuple[str, int], int] = {}
            for sender, seq, group in log:
                key = (sender, group)
                prev = last.get(key)
                if prev is not None and seq <= prev:
                    raise OracleViolation(
                        "group-fifo",
                        f"sender {sender} group {group} delivered seq {seq} "
                        f"after seq {prev}",
                        source=learner,
                        context={"sender": sender, "group": group,
                                 "seq": seq, "previous": prev},
                    )
                last[key] = seq

    @staticmethod
    def _check_pairwise_common_order(logs: dict[str, list], oracle: str, what: str) -> None:
        names = sorted(logs)
        for i, a in enumerate(names):
            log_a = logs[a]
            set_a = set(log_a)
            for b in names[i + 1:]:
                log_b = logs[b]
                common = set_a & set(log_b)
                if not common:
                    continue
                seq_a = [m for m in log_a if m in common]
                seq_b = [m for m in log_b if m in common]
                if seq_a != seq_b:
                    divergence = next(
                        (idx, x, y) for idx, (x, y) in enumerate(zip(seq_a, seq_b)) if x != y
                    )
                    raise OracleViolation(
                        oracle,
                        f"{a} and {b} deliver common {what} in different orders "
                        f"(first divergence at common index {divergence[0]}: "
                        f"{divergence[1]} vs {divergence[2]})",
                        context={"a": a, "b": b, "index": divergence[0],
                                 "a_delivers": divergence[1], "b_delivers": divergence[2]},
                    )

    # ------------------------------------------------------------------
    # Introspection (used by the fuzz driver's liveness check)
    # ------------------------------------------------------------------
    @property
    def proposed_messages(self) -> list[tuple[str, int, int]]:
        """All proposals seen, as sorted (sender, seq, group) tuples."""
        return sorted(self._proposed)

    def delivered_by(self, learner: str) -> set[tuple[str, int, int]]:
        """The (sender, seq, group) set a learner has delivered."""
        return set(self._delivered.get(learner, ()))

    def ring_frontiers(self) -> dict[int, int]:
        """Highest decided logical frontier any learner reached, per ring.

        The liveness-after-restart check snapshots this at heal time:
        every restarted learner must re-reach these positions within the
        grace window.
        """
        return dict(self._ring_frontier)


class AdmissionOracles:
    """Verify the admission-control contract over probe events.

    Watches the ``admission.delay`` / ``admission.shed`` events the
    :class:`~repro.core.admission.AdmissionController` emits, plus the
    ``population.complete`` acknowledgements of the flyweight client
    tier, and checks:

    * **Bounded intake** — the delayed-intake queue never exceeds its
      configured bound, and a shed only ever happens with the queue
      actually full (shed-with-slack would mean admission rejects work
      it had room for);
    * **No acked request dropped** — a shed never names a request id the
      client tier already saw completed. Sheds are synchronous and
      pre-sequence-number by construction; this oracle is the end-to-end
      probe-level witness of that property under crash/overload
      schedules.

    Request ids are taken to be unique across the deployment, which
    holds for a single client-population tier (the fuzz ``overload``
    profile builds exactly one).
    """

    def __init__(self) -> None:
        self._completed: set[object] = set()
        self.events_checked = 0

    def attach(self, sim: Simulator) -> "AdmissionOracles":
        """Subscribe to ``sim``'s probe bus, installing one if absent."""
        if sim.probe is None:
            sim.attach_probe(ProbeBus())
        self.subscribe(sim.probe)
        return self

    def subscribe(self, bus: ProbeBus) -> "AdmissionOracles":
        """Subscribe the oracle handlers to ``bus``; returns self."""
        bus.subscribe(self._on_delay, kind=ADMISSION_DELAY)
        bus.subscribe(self._on_shed, kind=ADMISSION_SHED)
        bus.subscribe(self._on_complete, kind=POPULATION_COMPLETE)
        return self

    def _on_delay(self, ev: ProbeEvent) -> None:
        self.events_checked += 1
        depth, bound = ev.data["depth"], ev.data["bound"]
        if depth > bound:
            raise OracleViolation(
                "admission",
                f"intake queue depth {depth} exceeds its bound {bound}",
                time=ev.time,
                source=ev.source,
                context={"depth": depth, "bound": bound},
            )

    def _on_shed(self, ev: ProbeEvent) -> None:
        self.events_checked += 1
        depth, bound = ev.data["depth"], ev.data["bound"]
        if depth < bound:
            raise OracleViolation(
                "admission",
                f"submission shed with intake slack ({depth} of {bound} queued)",
                time=ev.time,
                source=ev.source,
                context={"depth": depth, "bound": bound},
            )
        req_id = ev.data["req_id"]
        if req_id is not None and req_id in self._completed:
            raise OracleViolation(
                "admission",
                f"shed names request {req_id}, already acknowledged to the client",
                time=ev.time,
                source=ev.source,
                context={"req_id": req_id},
            )

    def _on_complete(self, ev: ProbeEvent) -> None:
        self.events_checked += 1
        self._completed.add(ev.data["req_id"])


@contextmanager
def oracle_watch() -> Iterator[list[SafetyOracles]]:
    """Attach a :class:`SafetyOracles` to every simulator created inside.

    The integration and property suites run under this watch (see their
    ``conftest.py``): any simulation they build gets the full oracle set
    for free, and the whole-history checks run on exit. Yields the list of
    attached oracles (one per simulator, in creation order).
    """
    attached: list[SafetyOracles] = []

    def on_simulator(sim: Simulator) -> None:
        attached.append(SafetyOracles().attach(sim))

    remove = observe_simulators(on_simulator)
    try:
        yield attached
    finally:
        remove()
        for oracles in attached:
            oracles.check_final()
