"""Integration: automatic ring reconfiguration (paper, Section IV-C).

A coordinator crash is detected by the surviving acceptors through
heartbeat silence; the first to suspect it stands for coordinator, runs
a range-Phase 1 over the ring and its spares, lays the new ring out from
those that promised, recovers accepted values, and resumes service. No
message may be lost, duplicated, or reordered across the
reconfiguration — also when the suspected coordinator is alive, or the
Phase 1 loses messages.

The second half covers planned elasticity through the
``ReconfigManager``: live group remaps, ring splits and merges, online
spare/learner add/remove, and the autoscaler policy loop.
"""

import pytest

from repro import MultiRingConfig, MultiRingPaxos
from repro.check import oracle_watch
from repro.core.reconfig import Autoscaler, AutoscalePolicy
from repro.errors import ConfigurationError
from repro.sim.faults import NetworkPartition
from repro.sim.loss import UniformLoss
from repro.sim.topology import Topology

SIZE = 8192


def deploy(n_groups=1, **kwargs):
    kwargs.setdefault("lambda_rate", 2000.0)
    kwargs.setdefault("spares_per_ring", 1)
    kwargs.setdefault("auto_failover", True)
    kwargs.setdefault("suspect_timeout", 0.05)
    return MultiRingPaxos(MultiRingConfig(n_groups=n_groups, **kwargs))


def test_takeover_installs_new_coordinator():
    mrp = deploy()
    old = mrp.rings[0].coordinator
    mrp.crash_coordinator(0)
    mrp.run(until=1.0)
    new = mrp.rings[0].coordinator
    assert new is not old
    assert new.node.name == "mr0-acc0"  # the surviving acceptor promoted
    assert new.rnd > old.rnd
    assert "mr0-spare0" in new.config.acceptors  # spare joined the ring
    assert mrp.rings[0].failover.takeovers.value == 1


def test_takeover_hands_over_the_ring_and_rewires_nothing():
    """The ring's skip manager and layout table outlive the coordinator
    object, every participant reads the one ring_configs, and the
    reconfiguration manager's cut proposer follows the successor like any
    client's."""
    mrp = deploy(n_groups=2)
    learner = mrp.add_learner(groups=[0, 1])
    proposer = mrp.add_proposer()
    handle = mrp.rings[0]
    old, manager = handle.coordinator, handle.skip_manager
    mrp.reconfig.remap_group(0, 1)  # its switch cut is submitted to ring 0
    mrp.run(until=0.5)
    mrp.crash_coordinator(0)
    mrp.run(until=1.0)
    new = handle.coordinator
    assert new is not old and handle.failover.coordinator is new
    assert mrp.reconfig.ring_proposers[0].coordinator == new.node.name
    assert handle.skip_manager is manager and manager.coordinator is new
    assert not manager.crashed and manager._timer.running
    assert handle.config is new.config is mrp.ring_configs[0]
    assert learner.ring_configs is mrp.ring_configs is proposer.ring_configs


def test_drain_installed_mid_takeover_reaches_the_successor():
    """A remap whose drain starts after the suspicion but before the
    successor has recovered submits its cuts like any client: the one to
    the ring in takeover follows the successor, and the move completes
    exactly once."""
    mrp = deploy(n_groups=2)
    log = []
    mrp.add_learner(groups=[0, 1], on_deliver=lambda g, v: log.append(v.payload))
    p = mrp.add_proposer()
    for i in range(4):
        p.multicast(i % 2, f"pre-{i}", SIZE)
    mrp.run(until=0.5)
    old = mrp.rings[0].coordinator
    mrp.crash_coordinator(0)
    failover = mrp.rings[0].failover
    while failover.takeovers.value == 0:
        mrp.sim.run(max_events=1)
    assert mrp.rings[0].coordinator is old  # recovering: not swapped yet
    completed = []
    mrp.reconfig.remap_group(0, 1, on_done=completed.append)
    for i in range(4):
        p.multicast(0, f"mid-{i}", SIZE)
    mrp.run(until=3.0)
    assert mrp.rings[0].coordinator is not old
    assert completed == [completed[0]] and completed[0]["done"]
    assert mrp.registry.ring_for(0) == 1
    assert sorted(log) == sorted([f"pre-{i}" for i in range(4)] + [f"mid-{i}" for i in range(4)])


def test_takeover_of_a_retired_ring_leaves_its_skip_manager_down():
    """A ring merge retires the source ring and stops its skip manager; a
    later takeover of that ring must not bring skip production back."""
    mrp = deploy(n_groups=2)
    mrp.add_learner(groups=[0, 1])
    mrp.reconfig.merge_rings(1, 0)
    mrp.run(until=2.0)
    handle = mrp.rings[1]
    assert handle.retired and handle.skip_manager.crashed
    skips = handle.skip_manager.skips_proposed.value
    old = handle.coordinator
    mrp.crash_coordinator(1)
    mrp.run(until=3.0)
    assert handle.coordinator is not old
    assert handle.skip_manager.crashed
    assert handle.skip_manager.skips_proposed.value == skips


def test_messages_survive_coordinator_failure_exactly_once():
    mrp = deploy()
    log = []
    mrp.add_learner(groups=[0], on_deliver=lambda g, v: log.append(v.payload))
    p = mrp.add_proposer()
    for i in range(10):
        p.multicast(0, f"pre-{i}", SIZE)
    mrp.run(until=0.5)
    assert len(log) == 10
    mrp.crash_coordinator(0)
    # These are submitted during the outage: the proposer keeps
    # retransmitting until the new coordinator acknowledges them.
    for i in range(10):
        p.multicast(0, f"mid-{i}", SIZE)
    mrp.run(until=1.5)
    for i in range(10):
        p.multicast(0, f"post-{i}", SIZE)
    mrp.run(until=3.0)
    assert len(log) == 30
    assert len(set(log)) == 30  # exactly once
    # Per-sender FIFO held across the takeover.
    assert [m for m in log if m.startswith("mid")] == [f"mid-{i}" for i in range(10)]
    assert [m for m in log if m.startswith("post")] == [f"post-{i}" for i in range(10)]


def test_undecided_inflight_values_are_recovered():
    """Values accepted by the survivor but undecided at crash time must be
    re-proposed by the new coordinator (Paxos value recovery)."""
    mrp = deploy(batch_timeout=10.0, window=64)
    log = []
    mrp.add_learner(groups=[0], on_deliver=lambda g, v: log.append(v.payload))
    p = mrp.add_proposer()
    for i in range(5):
        p.multicast(0, f"m{i}", SIZE)
    # Let the 2As reach the first acceptor but kill the coordinator right
    # away: decisions have not been announced yet.
    mrp.run(until=0.002)
    mrp.crash_coordinator(0)
    mrp.run(until=3.0)
    assert sorted(log) == [f"m{i}" for i in range(5)]
    assert len(log) == len(set(log))


def watch_recoveries(mrp, ring_id=0):
    """Snapshots of each successor's in-flight instances, taken when it has
    just recovered (``recover`` has run, no decision has come back): what
    the takeover re-proposed, instance -> item."""
    failover = mrp.rings[ring_id].failover
    recoveries = []
    announce = failover.on_new_coordinator

    def on_new_coordinator(coordinator):
        recoveries.append({s.instance: s.item for s in coordinator._inflight.values()})
        announce(coordinator)

    failover.on_new_coordinator = on_new_coordinator
    return recoveries


@pytest.mark.parametrize("crash_at", [0.5, 4.0])
def test_a_takeovers_cost_does_not_grow_with_uptime(crash_at):
    """A takeover costs detection plus one round. The successor
    re-proposes only what no promiser knows decided — at most one window
    — and proposers hand it their backlog at once, so the first value
    sent after the crash is delivered within suspect_timeout + 5 ms of it,
    whether the ring has run 0.5 s or 4 s. (Re-proposing the whole
    retained log took 749 and 5 999 instances here, and the first delivery
    61 ms, then more than 400 ms.)"""
    mrp = deploy(n_groups=2)
    delivered = []
    mrp.add_learner(
        groups=[0, 1],
        on_deliver=lambda g, v: delivered.append((g, v.created_at, mrp.sim.now)),
    )
    p = mrp.add_proposer()
    end = crash_at + 0.4
    for k in range(int(end / 0.001)):
        mrp.sim.at(k * 0.001, p.multicast, k % 2, k, 1024)
    recoveries = watch_recoveries(mrp)
    mrp.sim.at(crash_at, mrp.crash_coordinator, 0)
    mrp.run(until=end)
    assert len(recoveries) == 1
    assert len(recoveries[0]) <= mrp.config.window
    first = min(at for g, sent, at in delivered if g == 0 and sent > crash_at)
    assert first - crash_at <= mrp.config.suspect_timeout + 0.005


def test_a_takeovers_phase_1_starts_at_the_candidates_own_prefix():
    """The candidate asks from its own gap-free decided prefix and reads
    the history below it from its own decided log, so after 4 s of
    traffic acc1's promise carries no vote below that prefix and the
    successor recovers within a millisecond of the suspicion. (Asking from
    instance 0, the promise carried 5 999 votes, 2.3 MB, and recovering
    took 37 ms.) Every value is delivered exactly once."""
    crash_at = 4.0
    mrp = deploy(n_groups=2, acceptors_per_ring=3)
    delivered = []
    mrp.add_learner(groups=[0, 1], on_deliver=lambda g, v: delivered.append(v.payload))
    p = mrp.add_proposer()
    sent = int((crash_at + 0.3) / 0.001)
    for k in range(sent):
        mrp.sim.at(k * 0.001, p.multicast, k % 2, k, 1024)
    ring = mrp.rings[0]
    acc0, acc1 = ring.acceptors[:2]
    promises = []
    promise = acc1.promise

    def record_promise(msg):
        reply = promise(msg)
        promises.append((acc0.decided.prefix, reply))
        return reply

    acc1.promise = record_promise
    failover = ring.failover
    times = {}
    suspected, announce = failover.suspected, failover.on_new_coordinator

    def on_suspected(by):
        times["suspected"] = mrp.sim.now
        suspected(by)

    def on_new_coordinator(coordinator):
        times["recovered"] = mrp.sim.now
        announce(coordinator)

    failover.suspected, failover.on_new_coordinator = on_suspected, on_new_coordinator
    mrp.sim.at(crash_at, mrp.crash_coordinator, 0)
    mrp.run(until=crash_at + 0.4)
    assert ring.coordinator.node is acc0.node
    assert len(promises) == 1
    prefix, reply = promises[0]
    assert prefix > 7000 and reply.from_instance == prefix
    assert all(instance >= prefix for instance, _, _ in reply.accepted)
    assert times["recovered"] - times["suspected"] < 0.001
    assert sorted(delivered) == list(range(sent))


def test_a_promisers_decided_prefix_ahead_of_the_candidates_is_not_reproposed():
    """acc0 restarts from its disk, votes kept and decisions forgotten; it
    then stands for coordinator with acc1, whose gap-free decided prefix
    is ahead of its own, in its quorum. Nothing below acc1's prefix is
    proposed again: the successor enters those values in its decided log
    and serves them itself to a learner that was cut off while they were
    decided, and every learner delivers one sequence."""
    with oracle_watch():
        mrp = deploy(acceptors_per_ring=3, durable=True, lambda_rate=0.0)
        logs = [[], [], []]
        for log in logs:
            mrp.add_learner(groups=[0], on_deliver=lambda g, v, log=log: log.append(v.payload))
        p = mrp.add_proposer()
        ring = mrp.rings[0]
        acc0, acc1 = ring.acceptors
        cut(mrp, {"mr-lrn2"}, 0.05, 0.62)  # learner 2 asks the successor first
        for i in range(10):
            mrp.sim.at(0.1 + 0.005 * i, p.multicast, 0, f"a{i}", SIZE)
        mrp.run(until=0.2)
        acc0.crash()
        acc0.node.crash()
        mrp.run(until=0.21)
        acc0.node.restart()
        acc0.restart()
        for i in range(10):
            mrp.sim.at(0.25 + 0.005 * i, p.multicast, 0, f"b{i}", SIZE)
        mrp.run(until=0.4)
        prefix = acc1.decided.prefix
        assert acc0.decided.prefix < prefix == ring.coordinator.next_instance
        recoveries = watch_recoveries(mrp)
        mrp.crash_coordinator(0)
        mrp.run(until=0.6)
        assert ring.coordinator.node is acc0.node
        assert acc1.node.name in ring.coordinator.config.acceptors  # in the quorum
        assert len(recoveries) == 1 and min(recoveries[0], default=prefix) >= prefix
        for i in range(5):
            mrp.sim.at(0.6 + 0.005 * i, p.multicast, 0, f"c{i}", SIZE)
        mrp.run(until=1.5)
    expected = [f"{tag}{i}" for tag, n in (("a", 10), ("b", 10), ("c", 5)) for i in range(n)]
    assert logs[0] == logs[1] == logs[2] == expected
    # The cut-off learner's repairs were the successor's to serve.
    assert all(a.repairs_served.value == 0 for a in ring.failover.acceptors.values())


def test_values_the_quorum_knows_decided_are_acked_by_the_successor():
    """Every decided-ack of the first coordinator is lost. The successor
    does not propose those values again, so it must ack them itself: the
    proposer's whole backlog drains without another value being sent."""
    mrp = deploy(lambda_rate=0.0)
    log = []
    mrp.add_learner(groups=[0], on_deliver=lambda g, v: log.append(v.payload))
    p = mrp.add_proposer()
    mrp.network.loss = DropBetween(mrp.sim, "mr0-coord", "mr-prop0", until=float("inf"))
    for i in range(5):
        p.multicast(0, f"m{i}", SIZE)
    mrp.run(until=0.3)
    assert log == [f"m{i}" for i in range(5)] and p.unacked == 5
    recoveries = watch_recoveries(mrp)
    mrp.crash_coordinator(0)
    mrp.run(until=0.6)
    assert recoveries == [{}]
    assert p.unacked == 0
    assert log == [f"m{i}" for i in range(5)]


def test_multi_group_learner_drains_after_takeover():
    """The ring's skip manager, following the new coordinator, covers the
    outage interval, so a learner merged across rings drains its buffered
    backlog."""
    mrp = deploy(n_groups=2)
    log = []
    learner = mrp.add_learner(groups=[0, 1], on_deliver=lambda g, v: log.append(v.payload))
    p = mrp.add_proposer()
    for i in range(4):
        p.multicast(i % 2, f"pre-{i}", SIZE)
    mrp.run(until=0.5)
    mrp.crash_coordinator(0)
    for i in range(4, 10):
        p.multicast(1, f"ring1-{i}", SIZE)  # ring 1 keeps producing
    mrp.run(until=0.54)  # before detection: merge is stalled
    stalled = len(log)
    mrp.run(until=3.0)  # detection + takeover + skip catch-up
    assert len(log) == 10
    assert len(log) > stalled
    assert not learner.halted


def test_learner_repairs_follow_the_new_ring():
    mrp = deploy()
    log = []
    learner = mrp.add_learner(groups=[0], on_deliver=lambda g, v: log.append(v.payload))
    p = mrp.add_proposer()
    p.multicast(0, "before", SIZE)
    mrp.run(until=0.5)
    mrp.crash_coordinator(0)
    mrp.run(until=1.5)
    # After the CoordinatorChange announcement the learner's config names
    # the new ring members.
    ring_learner = learner.ring_learners[0]
    assert ring_learner.config.coordinator == "mr0-acc0"
    p.multicast(0, "after", SIZE)
    mrp.run(until=2.5)
    assert log == ["before", "after"]


def test_second_failover_uses_remaining_spare():
    mrp = deploy(acceptors_per_ring=3, spares_per_ring=2)
    log = []
    mrp.add_learner(groups=[0], on_deliver=lambda g, v: log.append(v.payload))
    p = mrp.add_proposer()
    p.multicast(0, "a", SIZE)
    mrp.run(until=0.5)
    mrp.crash_coordinator(0)
    mrp.run(until=1.5)
    p.multicast(0, "b", SIZE)
    mrp.run(until=2.0)
    # Kill the new coordinator too.
    second = mrp.rings[0].coordinator
    second.crash()
    second.node.crash()
    mrp.run(until=3.5)
    p.multicast(0, "c", SIZE)
    mrp.run(until=5.0)
    assert log == ["a", "b", "c"]
    assert mrp.rings[0].failover.takeovers.value == 2


def test_takeover_races_concurrent_acceptor_crash():
    """The coordinator and a mid-ring acceptor die together. The takeover
    must not wedge on the dead acceptor's missing promise: its Phase 1
    also asks f = 2 spares, so acc0 and both spares are a majority of the
    five, and the replacement ring is chained from those that promised.
    Nothing may be lost."""
    mrp = deploy(acceptors_per_ring=3, spares_per_ring=2)
    log = []
    mrp.add_learner(groups=[0], on_deliver=lambda g, v: log.append(v.payload))
    p = mrp.add_proposer()
    for i in range(5):
        p.multicast(0, f"pre-{i}", SIZE)
    mrp.run(until=0.5)
    assert len(log) == 5
    # Simultaneous: no heartbeat round separates the two failures.
    victim = mrp.rings[0].acceptors[1]
    victim.crash()
    victim.node.crash()
    mrp.crash_coordinator(0)
    for i in range(5):
        p.multicast(0, f"mid-{i}", SIZE)
    mrp.run(until=2.5)
    for i in range(5):
        p.multicast(0, f"post-{i}", SIZE)
    mrp.run(until=4.0)
    assert mrp.rings[0].failover.takeovers.value == 1
    assert len(log) == 15
    assert len(set(log)) == 15
    assert [m for m in log if m.startswith("mid")] == [f"mid-{i}" for i in range(5)]
    # The dead acceptor is out of the re-chained ring.
    assert victim.node.name not in mrp.rings[0].coordinator.config.acceptors


def test_no_false_takeover_while_coordinator_is_healthy():
    mrp = deploy()
    p = mrp.add_proposer()
    log = []
    mrp.add_learner(groups=[0], on_deliver=lambda g, v: log.append(v.payload))
    for i in range(5):
        p.multicast(0, f"m{i}", SIZE)
    mrp.run(until=2.0)  # idle for many suspect timeouts (heartbeats flow)
    assert mrp.rings[0].failover.takeovers.value == 0
    assert len(log) == 5


# ---------------------------------------------------------------------------
# The takeover is message-driven: what a failure detector that is wrong,
# or a lossy network, must not break
# ---------------------------------------------------------------------------
def cut(mrp, island, start, end):
    """Cut ``island`` off from every other node between ``start`` and ``end``."""
    partition = NetworkPartition(island)
    mrp.network.loss = partition
    mrp.sim.at(start, partition.activate)
    mrp.sim.at(end, partition.heal)


def test_learner_resolves_a_successors_decision_to_the_successors_batch():
    """A learner cut off together with a live coordinator and one proposer
    holds the batches that coordinator numbered and never got decided. The
    successor numbers fewer batches meanwhile, then more after the heal:
    its decisions must resolve to its own batches, which carry value IDs
    of its own round, not to the deposed coordinator's."""
    mrp = deploy(n_groups=1, lambda_rate=0.0)
    inside, outside = [], []
    mrp.add_learner(groups=[0], on_deliver=lambda g, v: inside.append(v.payload))
    mrp.add_learner(groups=[0], on_deliver=lambda g, v: outside.append(v.payload))
    deposed, successor = mrp.add_proposer(), mrp.add_proposer()
    cut(mrp, {"mr0-coord", "mr-lrn0", "mr-prop0"}, 0.1, 0.4)
    for i in range(20):  # all before the takeover at ~0.15 s
        mrp.sim.at(0.101 + 0.002 * i, deposed.multicast, 0, f"d{i}", SIZE)
    for i in range(5):
        mrp.sim.at(0.2 + 0.005 * i, successor.multicast, 0, f"s{i}", SIZE)
    mrp.run(until=3.0)
    assert mrp.rings[0].coordinator.node.name == "mr0-acc0"
    expected = sorted([f"d{i}" for i in range(20)] + [f"s{i}" for i in range(5)])
    assert sorted(inside) == expected
    assert inside == outside


def test_a_lost_prepare_is_resent_and_the_takeover_completes():
    """The candidate's first PrepareRange to the spare is lost; it asks
    again every retry_timeout until a majority has promised."""
    mrp = deploy()
    log = []
    mrp.add_learner(groups=[0], on_deliver=lambda g, v: log.append(v.payload))
    p = mrp.add_proposer()
    p.multicast(0, "before", SIZE)
    mrp.run(until=0.5)
    # Detection lands at ~0.55 s; the spare hears nothing from acc0 until 0.58 s.
    mrp.network.loss = DropBetween(mrp.sim, "mr0-acc0", "mr0-spare0", until=0.58)
    mrp.crash_coordinator(0)
    mrp.run(until=1.5)
    assert mrp.rings[0].coordinator.node.name == "mr0-acc0"
    assert mrp.rings[0].failover.takeovers.value == 1
    p.multicast(0, "after", SIZE)
    mrp.run(until=2.5)
    assert log == ["before", "after"]


def test_live_coordinator_cut_off_past_its_timeout_is_fenced():
    """The ring's coordinator is alive, and cut off with one proposer for
    longer than suspect_timeout: its acceptor takes over by a Phase 1 it
    never sees, while it keeps batching. After the heal it re-sends its
    undecided 2As under round 0, which no member accepts: it decides
    nothing more, and the learners deliver one sequence, every message
    once."""
    mrp = deploy(n_groups=1, lambda_rate=0.0)
    logs = [[], []]
    for log in logs:
        mrp.add_learner(groups=[0], on_deliver=lambda g, v, log=log: log.append(v.payload))
    deposed, successor = mrp.add_proposer(), mrp.add_proposer()
    old = mrp.rings[0].coordinator
    cut(mrp, {"mr0-coord", "mr-prop0"}, 0.1, 0.35)
    for i in range(20):  # all before the takeover at ~0.15 s
        mrp.sim.at(0.101 + 0.002 * i, deposed.multicast, 0, f"d{i}", SIZE)
    for i in range(5):
        mrp.sim.at(0.2 + 0.005 * i, successor.multicast, 0, f"s{i}", SIZE)
    mrp.run(until=0.35)
    assert mrp.rings[0].coordinator is not old and not old.crashed
    decided = old.instances_decided.value
    mrp.run(until=3.0)
    assert old.instances_decided.value == decided
    assert logs[0] == logs[1]
    assert sorted(logs[0]) == sorted([f"d{i}" for i in range(20)] + [f"s{i}" for i in range(5)])


def test_spare_exhausted_takeover_on_a_geo_ring():
    """No spare left: the ring shrinks to its surviving members, and the
    new layout's regions are those members' (not the old layout's)."""
    topology = Topology(["eu", "us"], wan_latency=0.01)
    mrp = deploy(n_groups=1, acceptors_per_ring=3, spares_per_ring=0,
                 topology=topology, group_regions=["eu"])
    log = []
    mrp.add_learner(groups=[0], on_deliver=lambda g, v: log.append(v.payload))
    p = mrp.add_proposer()
    p.multicast(0, "before", SIZE)
    mrp.run(until=0.5)
    mrp.crash_coordinator(0)
    mrp.run(until=1.5)
    config = mrp.rings[0].config
    assert config.acceptors == ["mr0-acc1", "mr0-acc0"]
    assert config.acceptor_regions == ["eu", "eu"]
    assert mrp.rings[0].failover.degraded_takeovers.value == 1
    p.multicast(0, "after", SIZE)
    mrp.run(until=2.5)
    assert log == ["before", "after"]


class DropBetween:
    """Loss model: drop every message from ``src`` to ``dst`` until ``until``."""

    def __init__(self, sim, src, dst, until):
        self.sim, self.src, self.dst, self.until = sim, src, dst, until

    def should_drop(self, rng, src, dst, size):
        return (src, dst) == (self.src, self.dst) and self.sim.now < self.until


# ---------------------------------------------------------------------------
# Planned elasticity: the ReconfigManager / Autoscaler
# ---------------------------------------------------------------------------
def test_live_remap_delivers_everything_exactly_once():
    """Move group 1 from ring 1 onto ring 0 while its proposer is still
    multicasting. Values submitted before, during, and after the move all
    deliver exactly once and in per-sender order; the group table flips
    and the epoch advances."""
    mrp = deploy(n_groups=2)
    log = []
    mrp.add_learner(groups=[0, 1], on_deliver=lambda g, v: log.append((g, v.payload)))
    p = mrp.add_proposer()
    for i in range(6):
        p.multicast(i % 2, f"pre-{i}", SIZE)
    mrp.run(until=0.5)
    completed = []
    mrp.reconfig.remap_group(1, 0, on_done=completed.append)
    for i in range(6):  # submitted while the move is in flight (held/drained)
        p.multicast(1, f"mid-{i}", SIZE)
    mrp.run(until=2.0)
    for i in range(6):
        p.multicast(1, f"post-{i}", SIZE)
    mrp.run(until=3.5)
    assert completed and completed[0]["done"]
    assert mrp.reconfig.epoch == 1
    assert mrp.registry.ring_for(1) == 0
    assert not mrp.reconfig.busy
    payloads = [m for _, m in log]
    assert len(payloads) == 18
    assert len(set(payloads)) == 18
    assert [m for m in payloads if m.startswith("mid")] == [f"mid-{i}" for i in range(6)]
    assert [m for m in payloads if m.startswith("post")] == [f"post-{i}" for i in range(6)]


class ManagerLinkLoss:
    """Loss model: drop each leg to or from the reconfiguration manager's
    node with probability ``p``; every other leg is reliable."""

    def __init__(self, p):
        self.loss = UniformLoss(p)

    def should_drop(self, rng, src, dst, size):
        return "mr-reconfig" in (src, dst) and self.loss.should_drop(rng, src, dst, size)


def loaded_remap(loss):
    """Groups 0 and 2 on ring 0, group 1 on ring 1; four proposers send
    8 KiB values round-robin over the groups, one every 0.1 ms for 0.3 s,
    and at 0.15 s group 2 moves onto ring 1. Both rings stay loaded, so a
    cut waits for the next value's batch, not for the batch timeout.
    Returns the deployment, the completion times of the move, and the
    payloads sent and delivered."""
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=3, n_rings=2, lambda_rate=2000.0, seed=3))
    mrp.network.loss = ManagerLinkLoss(loss)
    delivered = []
    mrp.add_learner(groups=[0, 1, 2], on_deliver=lambda g, v: delivered.append(v.payload))
    proposers = [mrp.add_proposer() for _ in range(4)]
    sent = [f"v{k}" for k in range(3000)]
    for k, payload in enumerate(sent):
        mrp.sim.at(k * 0.0001, proposers[k % 4].multicast, k % 3, payload, SIZE)
    done = []
    mrp.sim.at(0.15, mrp.reconfig.remap_group, 2, 1, lambda op: done.append(mrp.sim.now))
    mrp.run(until=1.0)
    return mrp, done, sent, delivered


@pytest.mark.parametrize("loss", [0.2, 0.0])
def test_a_remap_survives_lossy_manager_links(loss):
    """A fifth of the messages to and from the manager's node are lost:
    holds, releases, their replies, and the cut Submits and their acks.
    The manager resends a hold or release once its reply is overdue, its
    ring proposers resend the cuts, and the move completes exactly once
    with every value delivered once. Without loss nothing is resent."""
    mrp, done, sent, delivered = loaded_remap(loss)
    assert len(done) == 1 and mrp.reconfig.remaps.value == 1
    assert mrp.registry.ring_for(2) == 1 and not mrp.reconfig.busy
    assert sorted(delivered) == sorted(sent)
    resent = mrp.reconfig.requests_resent.value
    cut_resends = sum(p.retransmissions.value for p in mrp.reconfig.ring_proposers.values())
    if loss:
        assert resent >= 1
    else:
        assert resent == cut_resends == 0


def test_a_remap_is_event_driven():
    """Each step of a remap follows the reply or ack before it at once:
    on loaded rings the move completes within 2 ms of its request, not at
    a 50 ms retry tick."""
    mrp, done, sent, delivered = loaded_remap(0.0)
    assert len(done) == 1 and done[0] - 0.15 <= 0.002


def test_proposer_added_mid_move_holds_the_group():
    """A proposer that joins while a remap is in flight holds the moving
    group from its first multicast: its values reach no ring until the
    move releases them onto the new one, and each is delivered exactly
    once, in per-sender order."""
    mrp = deploy(n_groups=2)
    log = []
    mrp.add_learner(groups=[0, 1], on_deliver=lambda g, v: log.append((v.sender, v.payload)))
    p = mrp.add_proposer()
    for i in range(4):
        p.multicast(1, f"pre-{i}", SIZE)
    mrp.run(until=0.5)
    completed = []
    mrp.reconfig.remap_group(1, 0, on_done=completed.append)
    late = mrp.add_proposer()
    assert [late.multicast(1, f"late-{i}", SIZE) for i in range(4)] == [None] * 4
    mrp.run(until=2.0)
    assert completed and completed[0]["done"]
    assert mrp.registry.ring_for(1) == 0
    assert [m for s, m in log if s == late.node.name] == [f"late-{i}" for i in range(4)]
    assert [m for s, m in log if s == p.node.name] == [f"pre-{i}" for i in range(4)]


def test_a_move_onto_a_ring_retired_while_it_was_queued_is_abandoned():
    """The destination was live when the move was queued, and a merge
    queued before it retired the ring: the move is abandoned when it
    starts, so the group stays on a ring that serves and every value is
    delivered."""
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=2, lambda_rate=2000.0, spares_per_ring=1))
    log = []
    mrp.add_learner(groups=[0, 1], on_deliver=lambda g, v: log.append(v.payload))
    p = mrp.add_proposer()
    mrp.reconfig.merge_rings(1, 0)
    moved_back = mrp.reconfig.remap_group(1, 1)
    mrp.run(until=2.0)
    assert mrp.rings[1].retired
    assert mrp.registry.ring_for(1) == 0
    assert not moved_back["done"] and not mrp.reconfig.busy
    for i in range(6):
        p.multicast(i % 2, f"m{i}", SIZE)
    mrp.run(until=3.5)
    assert sorted(log) == [f"m{i}" for i in range(6)]


def test_a_merge_into_a_ring_an_earlier_merge_retired_is_abandoned():
    """``merge_rings(0, 1)`` queued behind ``merge_rings(1, 0)``: its
    moves onto ring 1 find that ring retired and are abandoned, and so is
    its retirement of ring 0, which still orders both groups."""
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=2, lambda_rate=2000.0, spares_per_ring=1))
    log = []
    mrp.add_learner(groups=[0, 1], on_deliver=lambda g, v: log.append(v.payload))
    p = mrp.add_proposer()
    mrp.reconfig.merge_rings(1, 0)
    mrp.reconfig.merge_rings(0, 1)
    mrp.run(until=2.0)
    assert mrp.rings[1].retired and not mrp.rings[0].retired
    assert mrp.registry.groups_on_ring(0) == [0, 1]
    for i in range(6):
        p.multicast(i % 2, f"m{i}", SIZE)
    mrp.run(until=3.5)
    assert sorted(log) == [f"m{i}" for i in range(6)]


def test_learners_with_different_subscriptions_agree_across_a_remap():
    """Group 2 moves from ring 2 onto ring 0 under traffic. The learner of
    groups 0-2 has had ring 0 all along; the learner of groups 1-2 joins
    ring 0 at the join cut, and ring 0 may be ahead of or behind the
    place the merge has reached when it consumes the switch. Both must
    deliver the messages of groups 1 and 2 in one order."""
    mrp = deploy(n_groups=3, lambda_rate=1000.0, auto_failover=False)
    logs = [[], []]
    for groups, log in zip(([0, 1, 2], [1, 2]), logs):
        mrp.add_learner(groups=groups, on_deliver=lambda g, v, log=log: log.append(v.payload))
    p, q = mrp.add_proposer(), mrp.add_proposer()
    for i in range(60):
        mrp.sim.at(0.1 + 0.01 * i, p.multicast, 1, f"a{i}", SIZE)
        mrp.sim.at(0.1 + 0.01 * i, q.multicast, 2, f"b{i}", SIZE)
        mrp.sim.at(0.1 + 0.01 * i, q.multicast, 0, f"c{i}", SIZE)
    completed = []
    mrp.sim.at(0.3, mrp.reconfig.remap_group, 2, 0, completed.append)
    mrp.run(until=2.0)
    assert completed and completed[0]["done"]
    common = set(logs[0]) & set(logs[1])
    assert len(common) == 120
    assert [m for m in logs[0] if m in common] == [m for m in logs[1] if m in common]


def test_remap_validation_and_idempotence():
    mrp = deploy(n_groups=2)
    with pytest.raises(ConfigurationError):
        mrp.reconfig.remap_group(9, 0)  # unknown group
    with pytest.raises(ConfigurationError):
        mrp.reconfig.remap_group(0, 9)  # unknown ring
    with pytest.raises(ConfigurationError):
        mrp.reconfig.merge_rings(0, 0)  # self-merge
    with pytest.raises(ConfigurationError):
        mrp.reconfig.merge_rings(0, 9)  # unknown target
    # A remap onto the current ring completes synchronously, consumes no
    # epoch, and leaves nothing queued.
    completed = []
    op = mrp.reconfig.remap_group(0, 0, on_done=completed.append)
    assert op["done"] and completed == [op]
    assert mrp.reconfig.epoch == 0
    assert not mrp.reconfig.busy


def test_merge_rings_retires_source_and_traffic_continues():
    mrp = deploy(n_groups=2)
    log = []
    mrp.add_learner(groups=[0, 1], on_deliver=lambda g, v: log.append(v.payload))
    p = mrp.add_proposer()
    for i in range(4):
        p.multicast(i % 2, f"pre-{i}", SIZE)
    mrp.run(until=0.5)
    mrp.reconfig.merge_rings(1, 0)
    mrp.run(until=2.5)
    assert mrp.rings[1].retired
    assert mrp.registry.groups_on_ring(0) == [0, 1]
    assert mrp.registry.groups_on_ring(1) == []
    # The retired ring is no longer a legal remap destination.
    with pytest.raises(ConfigurationError):
        mrp.reconfig.remap_group(0, 1)
    for i in range(4):
        p.multicast(i % 2, f"post-{i}", SIZE)
    mrp.run(until=4.0)
    assert len(log) == 8 and len(set(log)) == 8


def test_split_ring_rebalances_groups():
    mrp = deploy(n_groups=2)
    log = []
    mrp.add_learner(groups=[0, 1], on_deliver=lambda g, v: log.append(v.payload))
    p = mrp.add_proposer()
    # A one-group ring cannot shed load by splitting.
    assert mrp.reconfig.split_ring(0) is None
    mrp.reconfig.merge_rings(1, 0)
    mrp.run(until=2.0)
    new_ring = mrp.reconfig.split_ring(0)
    assert new_ring == 2  # fresh id past the retired ring 1
    mrp.run(until=4.0)
    assert mrp.registry.groups_on_ring(0) == [0]
    assert mrp.registry.groups_on_ring(new_ring) == [1]
    assert not mrp.rings[new_ring].retired
    for i in range(6):
        p.multicast(i % 2, f"m{i}", SIZE)
    mrp.run(until=5.5)
    assert sorted(log) == sorted(f"m{i}" for i in range(6))


def test_a_ring_deployed_mid_run_starts_level_with_the_others():
    """A ring added at 1 s opens with a skip of the λ·t instances a ring
    deployed at 0 s has decided by then, so the learners' merge rounds
    pair its instances with the other rings' instances of the same time."""
    mrp = deploy(n_groups=2)
    mrp.add_learner(groups=[0, 1])
    mrp.run(until=1.0)
    ring_id = mrp.add_ring()
    mrp.run(until=1.5)
    frontiers = [mrp.rings[r].coordinator.next_instance for r in (0, 1, ring_id)]
    assert min(frontiers) >= 2000 * 1.5 - 50
    assert max(frontiers) - min(frontiers) <= 50


def test_add_and_remove_spare():
    mrp = deploy()
    pool = mrp.rings[0].failover.spare_nodes
    assert len(pool) == 1  # the deployment's own spare
    node = mrp.reconfig.add_spare(0)
    assert node.name == "mr0-xspare0"
    assert pool[-1] is node
    # Decommission takes the tail: the newest spare goes first, the
    # failover's head-of-pool first choice is preserved.
    assert mrp.reconfig.remove_spare(0) is node
    assert len(pool) == 1
    assert mrp.reconfig.remove_spare(0).name == "mr0-spare0"
    assert mrp.reconfig.remove_spare(0) is None


def test_takeover_consumes_the_spare_from_the_one_pool():
    # The deployment's handle and the failover orchestrator share one
    # spare list: a promoted spare leaves both, so it can never be
    # "decommissioned" while serving as the ring's acceptor.
    mrp = deploy(spares_per_ring=2)
    handle = mrp.rings[0]
    mrp.crash_coordinator(0)
    mrp.run(until=1.0)
    assert "mr0-spare0" in handle.coordinator.config.acceptors
    assert [n.name for n in handle.spares] == ["mr0-spare1"]
    assert [n.name for n in handle.failover.spare_nodes] == ["mr0-spare1"]
    assert mrp.reconfig.remove_spare(0).name == "mr0-spare1"
    assert mrp.reconfig.remove_spare(0) is None
    assert handle.spares == []


@pytest.mark.parametrize("auto_failover", [True, False])
def test_spare_add_remove_round_trips(auto_failover):
    mrp = deploy(auto_failover=auto_failover)
    spares = mrp.rings[0].spares
    before = list(spares)
    node = mrp.reconfig.add_spare(0)
    assert spares == before + [node]
    assert mrp.reconfig.remove_spare(0) is node
    assert spares == before


def test_rotate_coordinator_replaces_ring_head():
    mrp = deploy()
    log = []
    mrp.add_learner(groups=[0], on_deliver=lambda g, v: log.append(v.payload))
    p = mrp.add_proposer()
    p.multicast(0, "before", SIZE)
    mrp.run(until=0.5)
    old = mrp.rings[0].coordinator
    mrp.reconfig.rotate_coordinator(0)
    mrp.run(until=2.0)
    assert mrp.rings[0].coordinator is not old
    assert mrp.rings[0].failover.takeovers.value == 1
    p.multicast(0, "after", SIZE)
    mrp.run(until=3.0)
    assert log == ["before", "after"]


def test_rotate_coordinator_requires_failover():
    mrp = deploy(auto_failover=False)
    with pytest.raises(ConfigurationError):
        mrp.reconfig.rotate_coordinator(0)


def test_attach_learner_catches_up_decided_prefix():
    mrp = deploy()
    p = mrp.add_proposer()
    for i in range(8):
        p.multicast(0, f"old-{i}", SIZE)
    mrp.run(until=0.5)
    log = []
    learner = mrp.reconfig.attach_learner([0], on_deliver=lambda g, v: log.append(v.payload))
    mrp.run(until=2.0)
    # The ranged catch-up replayed the prefix decided before it existed.
    assert log == [f"old-{i}" for i in range(8)]
    p.multicast(0, "live", SIZE)
    mrp.run(until=3.0)
    assert log[-1] == "live"
    assert not learner.halted


def test_detach_learner_stops_delivery():
    mrp = deploy()
    kept, gone = [], []
    mrp.add_learner(groups=[0], on_deliver=lambda g, v: kept.append(v.payload))
    detached = mrp.add_learner(groups=[0], on_deliver=lambda g, v: gone.append(v.payload))
    p = mrp.add_proposer()
    p.multicast(0, "a", SIZE)
    mrp.run(until=0.5)
    assert kept == ["a"] and gone == ["a"]
    mrp.reconfig.detach_learner(detached)
    assert detached not in mrp.learners
    p.multicast(0, "b", SIZE)
    mrp.run(until=1.5)
    assert kept == ["a", "b"]
    assert gone == ["a"]  # no deliveries after detach


def test_autoscaler_splits_hot_ring():
    """Both groups share one ring; under load the policy loop (with a
    floor-zero CPU threshold so any work reads as hot) splits it and the
    manager rebalances the groups onto the new ring."""
    mrp = MultiRingPaxos(MultiRingConfig(
        n_groups=2, n_rings=1, lambda_rate=2000.0, spares_per_ring=1,
    ))
    log = []
    mrp.add_learner(groups=[0, 1], on_deliver=lambda g, v: log.append(v.payload))
    p = mrp.add_proposer()
    scaler = Autoscaler(mrp, AutoscalePolicy(
        interval=0.1, cooldown=0.0, cpu_split_threshold=0.0, max_rings=4,
    ))
    scaler.start()
    for i in range(60):
        p.multicast(i % 2, f"m{i}", SIZE)
    mrp.run(until=4.0)
    scaler.stop()
    assert scaler.splits.value >= 1
    active = [rid for rid, h in mrp.rings.items() if not h.retired]
    assert len(active) >= 2
    assert mrp.registry.ring_for(0) != mrp.registry.ring_for(1)
    assert len(log) == 60 and len(set(log)) == 60


def test_autoscaler_merges_idle_rings():
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=2, lambda_rate=2000.0))
    log = []
    mrp.add_learner(groups=[0, 1], on_deliver=lambda g, v: log.append(v.payload))
    p = mrp.add_proposer()
    scaler = Autoscaler(mrp, AutoscalePolicy(
        interval=0.1, cooldown=0.2, idle_cpu_threshold=1.0, min_rings=1,
    ))
    scaler.start()
    mrp.run(until=3.0)  # idle: both coordinators far below the threshold
    scaler.stop()
    assert scaler.merges.value >= 1
    active = [rid for rid, h in mrp.rings.items() if not h.retired]
    assert len(active) == 1
    assert mrp.registry.groups_on_ring(active[0]) == [0, 1]
    for i in range(6):  # the folded deployment still serves both groups
        p.multicast(i % 2, f"m{i}", SIZE)
    mrp.run(until=4.5)
    assert sorted(log) == sorted(f"m{i}" for i in range(6))


def test_autoscaler_does_not_merge_a_ring_whose_coordinator_crashed():
    """A crashed coordinator's CPU reads flat over a window, where a live
    one's heartbeats always cost some: the policy loop skips that ring, so
    with one other ring there is no pair of idle rings to fold."""
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=2, lambda_rate=2000.0))
    mrp.add_learner(groups=[0, 1])
    scaler = Autoscaler(mrp, AutoscalePolicy(
        interval=0.1, cooldown=0.2, idle_cpu_threshold=1.0, min_rings=1,
    ))
    mrp.crash_coordinator(1)
    scaler.start()
    mrp.run(until=3.0)
    scaler.stop()
    assert scaler.merges.value == 0
    assert not mrp.rings[0].retired and not mrp.rings[1].retired


def test_autoscaler_cpu_signal_is_busy_time_over_the_interval():
    """The policy loop's CPU reading is two readings of each coordinator's
    ``busy_time()`` one ``interval`` apart, taken every tick (also while a
    cooldown or a reconfiguration keeps it from acting); a coordinator it
    has not read before — a takeover's — has no window for one tick."""
    mrp = deploy(n_groups=2)
    mrp.add_learner(groups=[0, 1])
    p = mrp.add_proposer()
    scaler = Autoscaler(mrp, AutoscalePolicy(  # thresholds no load can reach
        interval=0.1, cooldown=1000.0, cpu_split_threshold=2.0, idle_cpu_threshold=0.0,
    ))
    seen = []
    ring_cpu = scaler._ring_cpu
    scaler._ring_cpu = lambda: seen.append(ring_cpu()) or seen[-1]
    ticks = []  # read independently: (coordinator node and liveness per ring, busy_time per node)

    def read():
        ticks.append((
            {rid: (h.coordinator.node.name, h.coordinator.crashed) for rid, h in mrp.rings.items()},
            {name: node.cpu.busy_time() for name, node in mrp.network.nodes.items()},
        ))

    for tick in range(11):
        mrp.sim.at(0.1 * tick, read)
    # Scripted load: ring 0 from 0.15 s on, ring 1 inside one interval only.
    for i in range(400):
        mrp.sim.at(0.15 + 0.002 * i, p.multicast, 0, f"a{i}", SIZE)
    for i in range(20):
        mrp.sim.at(0.42 + 0.001 * i, p.multicast, 1, f"b{i}", SIZE)
    mrp.sim.at(0.65, mrp.crash_coordinator, 1)  # an acceptor takes over before 0.7 s
    scaler.start()
    mrp.run(until=1.0)
    scaler.stop()
    assert len(seen) == len(ticks) == 11 and seen[0] == {}  # start() opens the first window
    for cpu, (coords, busy), (coords_before, busy_before) in zip(seen[1:], ticks[1:], ticks):
        expected = {
            rid: (busy[name] - busy_before[name]) / 0.1
            for rid, (name, crashed) in coords.items()
            if not crashed and coords_before[rid][0] == name
        }
        assert cpu == pytest.approx(expected, rel=1e-9)
    assert [sorted(cpu) for cpu in seen[6:9]] == [[0, 1], [0], [0, 1]]  # 0.7 s: no window yet
    assert seen[5][1] > 2 * seen[4][1] and seen[6][1] == pytest.approx(seen[4][1])
    assert seen[4][0] > 4 * seen[1][0]
