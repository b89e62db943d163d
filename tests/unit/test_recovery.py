"""Crash-recovery tests: durable storage, acceptor restart, learner
catch-up, merge/replica checkpointing, and checkpoint-driven truncation.

Covers the write-barrier ordering contract of ``DurableStorage.persist``
(nothing is acked before the disk ack; a crash between write and ack
voids both the commit and the callback), the restarted acceptor's
Phase 1 answers, the learner's pull-based catch-up protocol, and the
monotonicity of checkpoint-ack log truncation.
"""

import pytest

from repro import MultiRingConfig, MultiRingPaxos
from repro.calibration import DEFAULT_VALUE_SIZE, DISK_BANDWIDTH_BYTES_PER_S
from repro.check import OracleViolation, SafetyOracles
from repro.core.merge import DeterministicMerge
from repro.obs.probe import (
    LEARNER_REWIND,
    LEARNER_ROLLBACK,
    REPLICA_APPLY,
    REPLICA_RESTORE,
    ProbeBus,
)
from repro.paxos import DurableStorage, InMemoryStorage
from repro.ringpaxos import build_ring
from repro.ringpaxos.messages import CheckpointAck, DataBatch
from repro.sim import Disk, Network, Simulator
from repro.smr import KeyValueStore, RangePartitioner, Replica, SmrClient


def deploy(seed=5, **kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim)
    ring = build_ring(sim, net, **kwargs)
    return sim, net, ring


def pump(ring, n, size=DEFAULT_VALUE_SIZE, start=0):
    prop = ring.proposers[0]
    return [prop.multicast(f"m{start + i}", size) for i in range(n)]


def attach_log(ring):
    logs = []
    for learner in ring.learners:
        log = []
        learner.on_deliver = lambda inst, v, log=log: log.append(v.payload)
        logs.append(log)
    return logs


# ---------------------------------------------------------------------------
# DurableStorage: the persist ordering contract
# ---------------------------------------------------------------------------
class TestDurablePersistOrdering:
    def _storage(self):
        sim = Simulator()
        disk = Disk(sim, bandwidth=1000.0, write_latency=0.01)
        return sim, DurableStorage(disk)

    def test_nothing_is_acked_or_durable_before_the_disk_ack(self):
        sim, st = self._storage()
        state = st.get(0)
        state.rnd = state.vrnd = 3
        done = []
        st.persist(0, 100, lambda: done.append(sim.now), ())
        # Before the write completes: no callback, and a crash right now
        # would recover to a blank image — the accept never happened.
        assert done == []
        floor, states = st.recover()
        assert states == {} and floor == -1
        # recover() voided the in-flight write: it must stay dead.
        sim.run()
        assert done == []

    def test_crash_between_write_and_ack_voids_commit_and_callback(self):
        sim, st = self._storage()
        state = st.get(4)
        state.rnd = state.vrnd = 2
        done = []
        st.persist(4, 100, lambda: done.append(True), ())
        st.on_crash()  # power loss with the write in the disk cache
        sim.run()
        assert done == []
        assert st.writes_invalidated == 1
        floor, states = st.recover()
        assert 4 not in states

    def test_committed_image_survives_and_replays(self):
        sim, st = self._storage()
        st.note_floor(7)
        state = st.get(0)
        state.rnd = state.vrnd = 7
        state.vval = "item"
        st.persist(0, 100, lambda: None, ())
        sim.run()
        # Later volatile mutations without a persist are lost on recovery.
        st.get(0).vrnd = 99
        st.get(1).vrnd = 1
        st.on_crash()
        floor, states = st.recover()
        assert floor == 7
        assert sorted(states) == [0]
        assert states[0].vrnd == 7 and states[0].vval == "item"

    def test_persist_snapshots_state_at_call_time(self):
        sim, st = self._storage()
        state = st.get(0)
        state.rnd = state.vrnd = 1
        st.persist(0, 100, lambda: None, ())
        state.vrnd = 50  # mutated while the write is in flight
        sim.run()
        st.on_crash()
        _, states = st.recover()
        assert states[0].vrnd == 1  # the image is the call-time snapshot

    def test_the_continuation_gets_its_arguments_at_the_barrier(self):
        done = []
        InMemoryStorage().persist(0, 100, done.append, ("at once",))
        assert done == ["at once"]
        sim, st = self._storage()
        st.get(2).vrnd = 1
        st.persist(2, 100, lambda *args: done.append((sim.now, args)), ("token", 7))
        assert done == ["at once"]  # not before the disk ack
        sim.run()
        assert done == ["at once", (0.01, ("token", 7))]  # write_latency later
        st.get(3).vrnd = 1
        st.persist(3, 100, done.append, ("lost",))
        st.on_crash()  # between the write and its ack: image and call void
        sim.run()
        assert done[-1] != "lost" and st.writes_invalidated == 1
        _, states = st.recover()
        assert sorted(states) == [2]

    def test_inmemory_recovery_is_amnesia(self):
        st = InMemoryStorage()
        st.note_floor(5)
        st.get(3).vrnd = 2
        floor, states = st.recover()
        assert floor == -1 and states == {}
        assert st.known_instances() == []


# ---------------------------------------------------------------------------
# Acceptor restart: Phase 1 answers from recovered state
# ---------------------------------------------------------------------------
class TestAcceptorRecovery:
    def _restart(self, acc):
        acc.crash()
        acc.node.crash()
        acc.node.restart()
        acc.restart()

    def test_restarted_durable_acceptor_answers_phase1_from_disk(self):
        sim, net, ring = deploy(durable=True)
        attach_log(ring)
        pump(ring, 10)
        sim.run(until=1.0)
        acc = ring.acceptors[0]
        accepted_before = sorted(acc.storage.known_instances())
        assert accepted_before  # the run accepted real instances
        self._restart(acc)
        assert acc.recoveries.value == 1
        assert acc.recovered_instances.value > 0
        promise = acc.local_promise(0, 10_000)
        instances = [inst for inst, _, _ in promise.accepted]
        assert instances  # non-empty Phase 1 answer from persisted state
        assert set(instances) <= set(accepted_before)
        for _, vrnd, item in promise.accepted:
            assert vrnd >= 0 and item is not None

    def test_restarted_inmemory_acceptor_is_amnesiac(self):
        sim, net, ring = deploy(durable=False)
        attach_log(ring)
        pump(ring, 10)
        sim.run(until=1.0)
        acc = ring.acceptors[0]
        assert acc.storage.known_instances()
        self._restart(acc)
        assert acc.local_promise(0, 10_000).accepted == ()
        assert acc.promised_floor == 10_000

    def test_recovered_floor_backs_phase1_refusals(self):
        """A promise made before the crash survives it: the restarted
        acceptor must not promise a lower round than it durably promised."""
        sim, net, ring = deploy(durable=True)
        attach_log(ring)
        pump(ring, 5)
        sim.run(until=0.5)
        acc = ring.acceptors[0]
        acc.local_promise(0, 500)           # promise round 500...
        acc.storage.persist(-1, 64, lambda: None, ())  # ...and make it durable
        sim.run(until=1.0)
        self._restart(acc)
        assert acc.promised_floor == 500

    def test_ring_delivers_after_acceptor_restart(self):
        sim, net, ring = deploy(durable=True)
        (log,) = attach_log(ring)
        pump(ring, 10)
        sim.run(until=1.0)
        acc = ring.acceptors[0]
        self._restart(acc)
        pump(ring, 10, start=10)
        sim.run(until=3.0)
        assert log == [f"m{i}" for i in range(20)]


# ---------------------------------------------------------------------------
# Checkpoint acks: monotone log truncation
# ---------------------------------------------------------------------------
class TestCheckpointTruncation:
    def test_truncation_bound_only_advances(self):
        sim, net, ring = deploy()
        attach_log(ring)
        pump(ring, 10)
        sim.run(until=1.0)
        acc = ring.acceptors[0]
        bounds = []
        original = acc.storage.forget_up_to

        def recording(bound):
            bounds.append(bound)
            original(bound)

        acc.storage.forget_up_to = recording
        ack = lambda replica, inst: acc._on_checkpoint_ack(
            CheckpointAck(replica=replica, ring_id=0, instance=inst)
        )
        ack("ra", 5)    # min watermark 5 -> truncate below 5
        ack("rb", 3)    # a NEW replica with a lower watermark: no regression
        ack("rb", 9)    # min(5, 9) - 1 == 4 <= 4: nothing new
        ack("ra", 12)   # min(12, 9) - 1 == 8 -> advance
        assert bounds == [4, 8]
        assert all(b1 > b0 for b0, b1 in zip(bounds, bounds[1:]))
        assert acc.truncations.value == 2
        assert acc.truncated_below.value == 9
        assert min(acc.storage.known_instances(), default=99) > 8

    def test_foreign_ring_and_stale_acks_are_ignored(self):
        sim, net, ring = deploy()
        attach_log(ring)
        pump(ring, 5)
        sim.run(until=1.0)
        acc = ring.acceptors[0]
        acc._on_checkpoint_ack(CheckpointAck(replica="ra", ring_id=7, instance=50))
        assert acc.truncations.value == 0
        acc._on_checkpoint_ack(CheckpointAck(replica="ra", ring_id=0, instance=4))
        acc._on_checkpoint_ack(CheckpointAck(replica="ra", ring_id=0, instance=2))
        assert acc._ckpt_watermarks["ra"] == 4  # stale ack did not regress


# ---------------------------------------------------------------------------
# Learner catch-up: pull-based state transfer
# ---------------------------------------------------------------------------
class TestLearnerCatchup:
    def test_restarted_learner_pulls_the_missed_suffix(self):
        sim, net, ring = deploy(n_acceptors=3)
        (log,) = attach_log(ring)
        learner = ring.learners[0]
        pump(ring, 10)
        sim.run(until=0.5)
        learner.crash()
        learner.node.crash()
        pump(ring, 10, start=10)
        sim.run(until=1.5)  # the suffix is decided while the learner is down
        learner.node.restart()
        learner.restart()
        sim.run(until=4.0)
        assert log == [f"m{i}" for i in range(20)]
        assert learner.catchups_requested.value >= 1
        served = sum(a.catchups_served.value for a in ring.acceptors)
        assert served >= 1

    def test_catchup_probes_even_with_a_stale_frontier(self):
        """A restarted learner has no local evidence of being behind; the
        first catch-up request must go out anyway, and the reply's
        frontier is what reveals (or rules out) the gap."""
        sim, net, ring = deploy()
        attach_log(ring)
        learner = ring.learners[0]
        pump(ring, 5)
        sim.run(until=0.5)
        assert learner.next_instance >= learner.frontier  # looks caught up
        before = learner.catchups_requested.value
        learner.crash()
        learner.node.crash()
        learner.node.restart()
        learner.restart()
        assert learner.catchups_requested.value == before + 1
        sim.run(until=1.0)
        assert not learner._catching_up  # reply confirmed nothing is owed

    def test_catchup_backoff_doubles_and_caps(self):
        sim, net, ring = deploy(n_acceptors=3)
        attach_log(ring)
        learner = ring.learners[0]
        pump(ring, 5)
        sim.run(until=0.5)
        # Take the whole ring down: catch-up requests go unanswered.
        for acc in ring.acceptors:
            acc.crash()
            acc.node.crash()
        ring.coordinator.crash()
        ring.coordinator.node.crash()
        learner.frontier = learner.next_instance + 50  # a known gap
        learner.begin_catchup()
        sim.run(until=5.0)
        cap = 32.0 * ring.config.repair_interval
        assert learner._catchup_backoff == pytest.approx(cap)
        assert learner._catching_up  # still trying, but at the capped rate
        assert learner.catchups_requested.value >= 5

    def test_rollback_rewinds_positions_without_traffic(self):
        sim, net, ring = deploy()
        attach_log(ring)
        learner = ring.learners[0]
        pump(ring, 10)
        sim.run(until=1.0)
        assert learner.next_instance > 0
        learner.crash()  # rollback must be legal on a crashed learner
        learner.rollback_to(0)
        assert learner.next_instance == 0
        assert learner.buffered_items == 0


# ---------------------------------------------------------------------------
# Merge checkpointing
# ---------------------------------------------------------------------------
class TestMergeSnapshotRestore:
    def _batch(self, vid):
        from repro.ringpaxos.messages import ClientValue

        value = ClientValue(payload=f"v{vid}", size=64, seq=vid)
        return DataBatch(value_id=vid, values=(value,))

    def test_restore_rewinds_cursor_and_clears_queues(self):
        delivered = []
        merge = DeterministicMerge(
            ring_order=[0, 1], m=1,
            on_deliver=lambda r, i, v: delivered.append(v.payload),
        )
        merge.push(0, 0, self._batch(1))
        snap = merge.snapshot()
        merge.push(1, 0, self._batch(2))
        merge.push(0, 1, self._batch(3))
        assert delivered == ["v1", "v2", "v3"]
        merge.push(1, 1, self._batch(4))
        merge.push(0, 2, self._batch(5))  # buffered: ring 1's turn
        merge.restore(snap)
        assert merge.snapshot() == snap
        assert merge.buffered_instances.value == 0
        assert merge.queue_depth(0) == 0 and merge.queue_depth(1) == 0
        # Replaying the same pushes reproduces the same delivery order.
        merge.push(1, 0, self._batch(2))
        merge.push(0, 1, self._batch(3))
        assert delivered[-2:] == ["v2", "v3"]

    def test_round_trip_keeps_buffered_items_and_partly_consumed_skips(self):
        from repro.ringpaxos.messages import SkipRange

        # Ring 0 runs ahead: a 5-instance skip range (2 consumed at once,
        # 3 left in the queue) and a batch wait for ring 1's turn.
        prefix = [(0, 0, SkipRange(5)), (0, 5, self._batch(1))]
        suffix = [(1, 0, self._batch(2)), (1, 1, SkipRange(1)), (1, 2, SkipRange(4))]

        def merge_of(delivered):
            return DeterministicMerge(
                ring_order=[0, 1], m=2,
                on_deliver=lambda r, i, v: delivered.append(v.payload),
            )

        expected = []
        reference = merge_of(expected)
        for push in prefix + suffix:
            reference.push(*push)

        delivered = []
        merge = merge_of(delivered)
        for push in prefix:
            merge.push(*push)
        assert merge.queue_depth(0) == 4  # [3 skips] + the batch
        snap = merge.snapshot()
        at_checkpoint = len(delivered)
        for push in suffix[:2]:
            merge.push(*push)  # consumes 2 of the 3 buffered skips in place
        for _ in range(2):  # one checkpoint can be restored twice
            merge.restore(snap)
            assert merge.queue_depth(0) == 4 and merge.queue_depth(1) == 0
            assert merge.queue_gauges[0].value == 4 and merge.queue_gauges[1].value == 0
            assert merge.buffered_instances.value == 4
            del delivered[at_checkpoint:]
            for push in suffix:
                merge.push(*push)
            assert delivered == expected
            assert merge.buffered_instances.value == reference.buffered_instances.value


# ---------------------------------------------------------------------------
# Replica checkpoint / restore, end to end
# ---------------------------------------------------------------------------
class TestReplicaCheckpointRestore:
    def _deploy(self, checkpoint_interval=4):
        part = RangePartitioner(1, key_space=1000)
        mrp = MultiRingPaxos(
            MultiRingConfig(n_groups=part.n_groups, lambda_rate=2000.0)
        )
        replicas = [
            Replica(
                mrp, part, 0, KeyValueStore(), name=f"rec-replica{i}",
                checkpoint_interval=checkpoint_interval,
                disk_bandwidth=DISK_BANDWIDTH_BYTES_PER_S,
            )
            for i in range(2)
        ]
        client = SmrClient(mrp, part, replicas_per_partition=2)
        return mrp, replicas, client

    def test_restarted_replica_restores_checkpoint_and_catches_up(self):
        mrp, (ra, rb), client = self._deploy()
        for key in range(10):
            client.insert(key)
        mrp.run(until=1.0)
        assert rb.checkpoints_taken.value >= 1  # crash lands past a checkpoint
        rb.crash()
        rb.node.crash()
        for key in range(10, 20):
            client.insert(key)
        mrp.run(until=2.0)
        rb.node.restart()
        rb.restart()
        mrp.run(until=4.0)
        assert rb.restores.value == 1
        # Both replicas converge to the same service state.
        assert rb.state_machine.snapshot() == ra.state_machine.snapshot()
        assert sorted(k for k in range(20)) == sorted(
            ra.state_machine.query(0, 999)
        )

    def test_checkpoint_acks_drive_acceptor_truncation(self):
        mrp, (ra, rb), client = self._deploy()
        for wave in range(3):
            for key in range(wave * 10, wave * 10 + 10):
                client.insert(key)
            mrp.run(until=0.5 * (wave + 1))
        mrp.run(until=2.0)
        assert ra.checkpoints_taken.value >= 2
        truncations = sum(
            acc.truncations.value
            for handle in mrp.rings.values()
            for acc in handle.acceptors
        )
        assert truncations > 0
        # The pruned prefix is really gone from the acceptors' logs.
        acc = mrp.rings[0].acceptors[0]
        assert acc.truncated_below.value > 0
        assert min(
            acc.storage.known_instances(), default=acc.truncated_below.value
        ) >= acc.truncated_below.value

    def test_restore_without_checkpointing_replays_from_genesis(self):
        mrp, (ra, rb), client = self._deploy(checkpoint_interval=2)
        client.insert(1)
        mrp.run(until=0.3)
        rb.crash()  # before any post-genesis checkpoint is guaranteed
        rb.node.crash()
        client.insert(2)
        mrp.run(until=1.0)
        rb.node.restart()
        rb.restart()
        mrp.run(until=3.0)
        assert rb.state_machine.snapshot() == ra.state_machine.snapshot()


# ---------------------------------------------------------------------------
# Oracle handlers for recovery events
# ---------------------------------------------------------------------------
class TestRecoveryOracles:
    def _watched_bus(self):
        bus = ProbeBus()
        oracles = SafetyOracles().subscribe(bus)
        return bus, oracles

    def _decide(self, bus, learner, instance, item, t=1.0):
        bus.emit("learner.decide", t, learner, ring=0, node=f"n-{learner}",
                 instance=instance, count=1, item=item)

    def _rollback(self, bus, learner, instance, t=2.0):
        bus.emit(LEARNER_ROLLBACK, t, learner, ring=0, node=f"n-{learner}",
                 instance=instance)

    def test_rollback_then_replay_rechecks_agreement(self):
        bus, oracles = self._watched_bus()
        for i in range(5):
            self._decide(bus, "l0", i, ("batch", f"v{i}", ()))
        self._rollback(bus, "l0", 2)
        # The replayed suffix must match the first-time decisions.
        self._decide(bus, "l0", 2, ("batch", "v2", ()))
        with pytest.raises(OracleViolation) as exc:
            self._decide(bus, "l0", 3, ("batch", "DIFFERENT", ()))
        assert exc.value.oracle == "agreement"

    def test_rollback_past_decided_position_raises(self):
        bus, _ = self._watched_bus()
        self._decide(bus, "l0", 0, ("batch", "v0", ()))
        with pytest.raises(OracleViolation) as exc:
            self._rollback(bus, "l0", 7)
        assert exc.value.oracle == "ring-order"

    def test_rewind_truncates_delivery_log(self):
        bus, _ = self._watched_bus()
        for seq in range(3):
            bus.emit("learner.deliver", 1.0, "ml0", node="n-ml0", group=0,
                     sender="p0", seq=seq, ring=0, instance=seq)
        bus.emit(LEARNER_REWIND, 2.0, "ml0", node="n-ml0", delivered=2)
        # Message 2 was rewound away: re-delivering it is not a duplicate.
        bus.emit("learner.deliver", 3.0, "ml0", node="n-ml0", group=0,
                 sender="p0", seq=2, ring=0, instance=2)

    def test_rewind_beyond_observed_deliveries_raises(self):
        bus, _ = self._watched_bus()
        bus.emit("learner.deliver", 1.0, "ml0", node="n-ml0", group=0,
                 sender="p0", seq=0, ring=0, instance=0)
        with pytest.raises(OracleViolation) as exc:
            bus.emit(LEARNER_REWIND, 2.0, "ml0", node="n-ml0", delivered=5)
        assert exc.value.oracle == "integrity"

    def test_restore_truncates_apply_log(self):
        bus, _ = self._watched_bus()
        for req in range(3):
            bus.emit(REPLICA_APPLY, 1.0, "r0", node="n-r0", partition=0,
                     client="c0", req_id=req, op="insert")
        bus.emit(REPLICA_RESTORE, 2.0, "r0", node="n-r0", partition=0,
                 applied=1)
        # The replayed suffix re-applies in the same order: no divergence.
        for req in (1, 2):
            bus.emit(REPLICA_APPLY, 3.0, "r0", node="n-r0", partition=0,
                     client="c0", req_id=req, op="insert")

    def test_restore_claiming_unseen_commands_raises(self):
        bus, _ = self._watched_bus()
        bus.emit(REPLICA_APPLY, 1.0, "r0", node="n-r0", partition=0,
                 client="c0", req_id=0, op="insert")
        with pytest.raises(OracleViolation) as exc:
            bus.emit(REPLICA_RESTORE, 2.0, "r0", node="n-r0", partition=0,
                     applied=4)
        assert exc.value.oracle == "replica-order"
