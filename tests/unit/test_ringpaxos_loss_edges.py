"""Targeted-loss tests for Ring Paxos's recovery edge cases.

Instead of random loss, these drop *specific* messages to force each
recovery path from the paper's Section III-B: the value without its
notification, the notification without its value, a 2B overtaking its 2A,
and a lost 2A stalling the ring until the coordinator's retry. Resends
wait until what they resend is overdue, so without loss there are none.
"""

from dataclasses import replace
from functools import partial

import pytest

from repro.calibration import DEFAULT_VALUE_SIZE, mbps_to_bytes_per_s
from repro.core.config import MultiRingConfig
from repro.core.deployment import MultiRingPaxos
from repro.errors import ConfigurationError, ProtocolError
from repro.obs.probe import ProbeBus
from repro.ringpaxos import RingConfig, RingCoordinator, build_ring
from repro.ringpaxos.proposer import RETRANSMIT_BURST
from repro.sim import Network, Node, Simulator
from repro.workload import ClosedLoopGenerator, ConstantRate, OpenLoopGenerator


class DropMatching:
    """Loss model dropping the first N messages matching a predicate."""

    def __init__(self, predicate, count=1):
        self.predicate = predicate
        self.remaining = count
        self.dropped = 0

    def should_drop(self, rng, src, dst, size):
        if self.remaining > 0 and self.predicate(src, dst, size):
            self.remaining -= 1
            self.dropped += 1
            return True
        return False


def deploy(loss=None, **kwargs):
    sim = Simulator(seed=10)
    net = Network(sim, loss=loss)
    ring = build_ring(sim, net, **kwargs)
    log = []
    ring.learners[0].on_deliver = lambda inst, v: log.append(v.payload)
    return sim, net, ring, log


def test_learner_missing_2a_recovers_via_repair():
    """Value lost to the learner (but decided): repair supplies it."""
    # Drop the first big multicast leg to the learner only.
    loss = DropMatching(lambda s, d, size: d == "r0-lrn0" and size > 4096)
    sim, net, ring, log = deploy(loss=loss)
    ring.proposers[0].multicast("m0", DEFAULT_VALUE_SIZE)
    ring.proposers[0].multicast("m1", DEFAULT_VALUE_SIZE)
    sim.run(until=2.0)
    assert loss.dropped == 1
    assert log == ["m0", "m1"]
    assert ring.learners[0].repairs_requested.value > 0


def test_acceptor_missing_2a_recovers_via_coordinator_retry():
    """First acceptor never sees the 2A: no 2B is created, the coordinator
    retries the instance after its timeout."""
    loss = DropMatching(lambda s, d, size: d == "r0-acc0" and size > 4096)
    sim, net, ring, log = deploy(loss=loss)
    ring.proposers[0].multicast("m0", DEFAULT_VALUE_SIZE)
    sim.run(until=2.0)
    assert log == ["m0"]
    assert ring.coordinator.retries.value >= 1


def test_2b_overtaking_2a_is_parked_until_value_arrives():
    """Middle acceptor gets the ring token before the value: Section
    III-B's safety check parks the 2B, and the acceptor asks the
    coordinator to resend the 2A."""
    loss = DropMatching(lambda s, d, size: d == "r0-acc1" and size > 4096)
    sim, net, ring, log = deploy(loss=loss, n_acceptors=3)
    ring.proposers[0].multicast("m0", DEFAULT_VALUE_SIZE)
    sim.run(until=2.0)
    assert log == ["m0"]
    # The middle acceptor accepted only after recovering the value.
    middle = ring.acceptors[1]
    assert middle.accepts.value == 1
    assert not middle._parked_2b


def test_a_reparked_2b_asks_the_coordinator_once_per_interval():
    """The middle acceptor misses the 2A, its retry and the resends it
    asks for, so a retry's token parks again at an instance already
    parked. That token joins the repair chain already running: one
    RepairRequest per repair interval, not one more chain per retry."""
    sim = Simulator(seed=10)
    until = 0.1
    loss = DropMatching(
        lambda s, d, size: d == "r0-acc1" and size > 4096 and sim.now < until, count=10**6
    )
    net = Network(sim, loss=loss)
    ring = build_ring(sim, net, n_acceptors=3)
    log = []
    ring.learners[0].on_deliver = lambda inst, v: log.append(v.payload)
    # Each call while the instance is parked sends one RepairRequest.
    requests = spy(ring.acceptors[1], "_repair_from_coordinator", sim)
    ring.proposers[0].multicast("m0", DEFAULT_VALUE_SIZE)
    sim.run(until=until)
    assert ring.coordinator.retries.value >= 3  # each retry's token re-parked
    interval = ring.config.repair_interval
    assert len(requests) >= 5
    times = [at for at, _ in requests]
    assert all(b - a > interval * 0.99 for a, b in zip(times, times[1:]))
    sim.run(until=1.0)
    assert log == ["m0"]


def test_lost_2b_token_recovered_by_retry():
    """The small ring token is lost: only the coordinator's 2A retry can
    restart the wave; delivery still happens exactly once."""
    loss = DropMatching(lambda s, d, size: size == 64 and d == "r0-coord")
    sim, net, ring, log = deploy(loss=loss)
    ring.proposers[0].multicast("m0", DEFAULT_VALUE_SIZE)
    sim.run(until=2.0)
    assert log == ["m0"]
    assert ring.coordinator.retries.value >= 1


def test_duplicate_decisions_do_not_redeliver():
    """Replayed decision announcements (e.g. after a retry) are idempotent
    at the learner."""
    sim, net, ring, log = deploy()
    ring.proposers[0].multicast("m0", DEFAULT_VALUE_SIZE)
    sim.run(until=0.5)
    assert log == ["m0"]
    learner = ring.learners[0]
    # Replay the decision for instance 0 by hand.
    learner._on_decisions(((0, 0),))
    sim.run(until=1.0)
    assert log == ["m0"]


# ---------------------------------------------------------------------------
# The coordinator's retry FIFO: one queue of deadlines, one kernel event
# ---------------------------------------------------------------------------
def spy(coord, name, sim):
    """Record ``(now, *args)`` of every call of ``coord.<name>``."""
    calls, original = [], getattr(coord, name)

    def wrapper(*args):
        calls.append((sim.now, *args))
        original(*args)

    setattr(coord, name, wrapper)
    return calls


def run_checked(sim, coord, until):
    """``sim.run(until=...)``, checking after every event that the
    coordinator has at most one retry entry in the kernel's heap."""
    while (head := sim._queue.peek_time()) is not None and head <= until:
        sim.run(max_events=1)
        queued = [e for e in sim._queue._heap if e[2] == coord._on_retry_due]
        assert len(queued) <= 1
        assert bool(queued) == bool(coord._retries)  # the head's entry
    sim.run(until=until)


def test_decided_instances_never_retry():
    sim, net, ring, log = deploy()
    coord = ring.coordinator
    retries = spy(coord, "_retry", sim)
    for i in range(40):
        ring.proposers[0].multicast(f"m{i}", DEFAULT_VALUE_SIZE)
    run_checked(sim, coord, 2.0)
    assert len(log) == 40
    assert retries == [] and coord.retries.value == 0
    # Every deadline lapsed unnoticed, and nothing is left behind.
    assert not coord._retries


def test_lost_2a_is_retried_exactly_one_timeout_after_its_multicast():
    loss = DropMatching(lambda s, d, size: d == "r0-acc0" and size > 4096)
    sim, net, ring, log = deploy(loss=loss)
    coord = ring.coordinator
    multicasts = spy(coord, "_multicast_phase2a", sim)
    retries = spy(coord, "_retry", sim)
    ring.proposers[0].multicast("m0", DEFAULT_VALUE_SIZE)
    run_checked(sim, coord, 2.0)
    assert log == ["m0"]
    assert retries == [(multicasts[0][0] + ring.config.retry_timeout, 0, 0)]
    assert [m.attempt for _, m, _ in multicasts] == [0, 1]


def test_restart_redrive_supersedes_the_precrash_deadline():
    """Crash after the 2A went out, restart before its retry deadline:
    on_restart re-drives the instance, and only the re-drive's deadline
    counts — it decides, so nothing ever retries."""
    sim, net, ring, log = deploy()
    coord = ring.coordinator
    multicasts = spy(coord, "_multicast_phase2a", sim)
    retries = spy(coord, "_retry", sim)
    ring.proposers[0].multicast("m0", DEFAULT_VALUE_SIZE)
    while not multicasts:
        sim.run(max_events=1)
    coord.crash()  # the 2B of attempt 0 reaches a dead coordinator
    precrash_deadline = sim.now + ring.config.retry_timeout
    run_checked(sim, coord, sim.now + ring.config.retry_timeout / 2)
    coord.restart()
    run_checked(sim, coord, precrash_deadline)
    assert log == ["m0"] and [m.attempt for _, m, _ in multicasts] == [0, 1]
    run_checked(sim, coord, 2.0)
    assert retries == [] and coord.retries.value == 0
    assert not coord._retries


def test_due_retries_of_a_crashed_coordinator_do_nothing():
    sim, net, ring, log = deploy()
    coord = ring.coordinator
    multicasts = spy(coord, "_multicast_phase2a", sim)
    retries = spy(coord, "_retry", sim)
    ring.proposers[0].multicast("m0", DEFAULT_VALUE_SIZE)
    while not multicasts:
        sim.run(max_events=1)
    coord.crash()
    run_checked(sim, coord, sim.now + 3 * ring.config.retry_timeout)
    assert retries == [] and coord.retries.value == 0
    assert len(multicasts) == 1 and 0 in coord._inflight
    coord.restart()  # the instance is still there to re-drive
    run_checked(sim, coord, 2.0)
    assert log == ["m0"] and retries == []


def test_rearmed_state_retries_once_at_the_later_deadline():
    loss = DropMatching(lambda s, d, size: d == "r0-acc0" and size > 4096)
    sim, net, ring, log = deploy(loss=loss)
    coord = ring.coordinator
    multicasts = spy(coord, "_multicast_phase2a", sim)
    retries = spy(coord, "_retry", sim)
    ring.proposers[0].multicast("m0", DEFAULT_VALUE_SIZE)
    while not multicasts:
        sim.run(max_events=1)
    run_checked(sim, coord, sim.now + ring.config.retry_timeout / 2)
    coord._arm_retry(coord._inflight[0])  # before the first deadline
    rearmed_at = sim.now
    run_checked(sim, coord, 2.0)
    assert retries == [(rearmed_at + ring.config.retry_timeout, 0, 0)]
    assert log == ["m0"] and coord.retries.value == 1


def test_negative_or_nan_retry_timeout_is_rejected_at_construction():
    for bad in (-0.01, float("nan")):
        sim = Simulator(seed=10)
        with pytest.raises(ConfigurationError):
            build_ring(sim, Network(sim), retry_timeout=bad)
        # RingConfig is mutable, so the coordinator, whose retry FIFO is
        # sorted only for one non-negative timeout, checks again.
        net = Network(sim)
        config = RingConfig(ring_id=0, acceptors=["c"])
        config.retry_timeout = bad
        with pytest.raises(ProtocolError):
            RingCoordinator(sim, net, net.add_node(Node(sim, "c")), config)


def test_heap_residency_stays_small_under_load():
    """One In-memory ring at 650 Mbit/s: the heap holds live work only.

    With a cancellable entry per retry and per timer restart the heap
    held about 310 entries here, nearly all of them dead.
    """
    sim = Simulator(seed=1)
    ring = build_ring(sim, Network(sim))
    proposer = ring.proposers[0]
    OpenLoopGenerator(
        sim,
        lambda: proposer.multicast(None, DEFAULT_VALUE_SIZE),
        ConstantRate(mbps_to_bytes_per_s(650) / DEFAULT_VALUE_SIZE),
        jitter=0.1,
    ).start()
    sizes = []
    for k in range(1, 11):
        sim.run(until=0.005 * k)
        sizes.append(sim.pending_events)
    assert ring.coordinator.instances_decided.value > 400
    assert max(sizes) < 100, sizes


def test_retarget_hands_the_whole_backlog_to_the_new_coordinator_at_once():
    """The coordinator is down with 200 values unacked. A retarget sends
    all 200 to the new coordinator at that instant; the periodic
    retransmit resends none of them until they are overdue, and then
    stays capped at RETRANSMIT_BURST per tick."""
    sim, net, ring, log = deploy()
    proposer = ring.proposers[0]
    ring.coordinator.crash()
    ring.coordinator.node.crash()
    for i in range(200):
        proposer.multicast(f"m{i}", 64)
    net.add_node(Node(sim, "r0-standby"))  # the new coordinator: never acks
    sent = []
    send = proposer._send

    def record(value):
        if proposer.coordinator == "r0-standby":
            sent.append((sim.now, value.seq))
        send(value)

    proposer._send = record
    sim.run(until=0.05)
    proposer.retarget(replace(ring.config, acceptors=["r0-acc0", "r0-standby"]))
    assert sent == [(sim.now, seq) for seq in range(200)]
    # The retransmit ticks run every retry_timeout from the first multicast
    # at t = 0; the first one at least a retry_timeout after the retarget
    # is where the resent values fall due.
    timeout = ring.config.retry_timeout
    due_tick = 0.0
    while due_tick < sim.now + timeout:
        due_tick += timeout
    sim.run(until=due_tick - timeout / 2)
    assert len(sent) == 200
    sim.run(until=due_tick)
    assert len(sent) == 200 + RETRANSMIT_BURST
    assert {t for t, _ in sent[200:]} == {due_tick}


def test_no_resend_without_loss():
    """A lossless ring below its knee resends nothing: every submission is
    acked, and every decision reaches the learner, within a timeout.
    Resending values that were only in flight (65 a run here, 8 KB each)
    put a burst of NIC work ahead of fresh values at every tick. Load and
    timing are the ring1_open benchmark's 650 Mbit/s leg: 0.45 s of
    offered load with 10 % interarrival jitter, then a drain."""
    sim = Simulator(seed=1)
    ring = build_ring(sim, Network(sim))
    proposer = ring.proposers[0]
    OpenLoopGenerator(
        sim,
        lambda: proposer.multicast(None, DEFAULT_VALUE_SIZE),
        ConstantRate(mbps_to_bytes_per_s(650) / DEFAULT_VALUE_SIZE),
        stop_at=0.45,
        jitter=0.1,
    ).start()
    sim.run(until=0.55)
    assert ring.learners[0].delivered_messages.value == proposer.sent.value > 4000
    assert proposer.retransmissions.value == 0
    assert sum(ln.repairs_requested.value for ln in ring.learners) == 0


def test_no_repairs_at_saturated_ingress():
    """One learner on two In-memory rings, closed loop: its ingress link
    is busy all the time, so decisions queue behind 2As, but nothing is
    lost. It asks for no repair, and payload fills the link: a repair of
    an instance that is only queued resends 8 KB into the saturated
    ingress, which held delivery near 930 Mbit/s."""
    warmup, duration = 0.2, 0.3
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=2, durable=False, seed=1))
    learner = mrp.add_learner(groups=[0, 1])
    generators = {}
    for group in range(2):
        proposer = mrp.add_proposer()
        generators[proposer.node.name] = generator = ClosedLoopGenerator(
            mrp.sim, partial(proposer.multicast, group, None, DEFAULT_VALUE_SIZE), window=48
        )
        generator.start()
    learner.on_deliver = lambda group, value: generators[value.sender].notify(value.seq)
    ingress = mrp.network.nic(learner.node.name).ingress
    mrp.sim.run(until=warmup)
    delivered, busy = learner.delivered_bytes.value, ingress.busy_time()
    mrp.sim.run(until=warmup + duration)
    assert (ingress.busy_time() - busy) / duration > 0.99
    delivered_mbps = (learner.delivered_bytes.value - delivered) * 8 / duration / 1e6
    assert delivered_mbps >= 950
    assert sum(rl.repairs_requested.value for rl in learner.ring_learners.values()) == 0


def _deliveries(sim, net) -> list:
    """``(time, destination, message type)`` of every message ``net`` hands
    to a node from now on."""
    bus = sim.probe
    if bus is None:
        bus = ProbeBus()
        sim.attach_probe(bus)
    net.probe = bus
    seen = []
    bus.subscribe(lambda ev: seen.append((ev.time, ev.source, ev.data["msg"])), kind="net.deliver")
    return seen


def test_a_dropped_submit_or_2a_leg_is_recovered_once_overdue():
    """Liveness with overdue resends. A Submit dropped once is resent
    within two retry timeouts plus a round trip. A 2A leg a learner lost
    is repaired within two repair intervals plus a round trip after the
    gap becomes visible: one tick finds the instance missing, the next
    one, a repair interval later, asks for it."""
    sim, net, ring, log = deploy()
    seen = _deliveries(sim, net)
    proposer = ring.proposers[0]
    proposer.multicast("m0", DEFAULT_VALUE_SIZE)
    sim.run(until=0.005)
    round_trip = 2 * seen[0][0]  # m0's Submit, sent at t = 0 on an idle link
    # m1's Submit, sent between two retransmit ticks, is lost.
    net.loss = loss = DropMatching(lambda s, d, size: d == "r0-coord" and size > 4096)
    proposer.multicast("m1", DEFAULT_VALUE_SIZE)
    dropped_at = sim.now
    sim.run(until=0.2)
    submits = [t for t, dst, msg in seen if msg == "Submit"]
    assert loss.dropped == 1 and log == ["m0", "m1"] and len(submits) == 2
    assert submits[1] - dropped_at <= 2 * ring.config.retry_timeout + round_trip

    # The 2A leg of m0 to the learner is lost; its decision arrives alone.
    loss = DropMatching(lambda s, d, size: d == "r0-lrn0" and size > 4096)
    sim, net, ring, log = deploy(loss=loss)
    learner = ring.learners[0]
    ring.proposers[0].multicast("m0", DEFAULT_VALUE_SIZE)
    while not (learner._awaiting_value or learner._ready or learner.next_instance < learner.frontier):
        sim.run(max_events=1)
    visible_at = sim.now
    while not log:
        sim.run(max_events=1)
    assert loss.dropped == 1 and learner.repairs_requested.value == 1
    assert sim.now - visible_at <= 2 * ring.config.repair_interval + round_trip
