"""Unit tests for the reliable-submission layer (proposer <-> coordinator).

Submissions are sequenced per proposer, retransmitted until acknowledged,
deduplicated and FIFO-restored at the coordinator, and acknowledged only
once *decided* — so an ack implies the value survives coordinator crashes.
"""

import pytest

from repro.calibration import DEFAULT_VALUE_SIZE
from repro.ringpaxos import build_ring
from repro.sim import Network, Simulator, UniformLoss


def deploy(loss=None, seed=8, **kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, loss=loss)
    ring = build_ring(sim, net, **kwargs)
    return sim, net, ring


def test_ack_only_after_decision():
    sim, net, ring = deploy()
    prop = ring.proposers[0]
    prop.multicast("m", DEFAULT_VALUE_SIZE)
    assert prop.unacked == 1
    sim.run(until=0.5)
    assert prop.unacked == 0


def test_retransmission_recovers_lost_submission():
    sim, net, ring = deploy(loss=UniformLoss(0.5), seed=14)
    log = []
    ring.learners[0].on_deliver = lambda inst, v: log.append(v.payload)
    prop = ring.proposers[0]
    for i in range(20):
        prop.multicast(f"m{i}", 1024)
    sim.run(until=20.0)
    assert [v for v in log] == [f"m{i}" for i in range(20)]
    assert prop.retransmissions.value > 0
    assert prop.unacked == 0


def test_duplicates_are_not_delivered_twice():
    sim, net, ring = deploy()
    log = []
    ring.learners[0].on_deliver = lambda inst, v: log.append(v.payload)
    prop = ring.proposers[0]
    value = prop.multicast("once", DEFAULT_VALUE_SIZE)
    # Force spurious retransmissions of an already-sent value.
    for _ in range(5):
        prop._send(value)
    sim.run(until=1.0)
    assert log == ["once"]


def test_out_of_order_submissions_are_fifo_restored():
    """If seq k is lost but k+1 arrives, the coordinator holds k+1 until
    the retransmission of k lands, preserving sender FIFO."""
    sim, net, ring = deploy()
    log = []
    ring.learners[0].on_deliver = lambda inst, v: log.append(v.payload)
    prop = ring.proposers[0]
    # Drop exactly the first submission's first transmission.
    dropped = {"done": False}

    class DropFirst:
        def should_drop(self, rng, src, dst, size):
            if not dropped["done"] and size > 4096 and dst == ring.config.coordinator:
                dropped["done"] = True
                return True
            return False

    net.loss = DropFirst()
    prop.multicast("first", DEFAULT_VALUE_SIZE)
    prop.multicast("second", DEFAULT_VALUE_SIZE)
    sim.run(until=2.0)
    assert log == ["first", "second"]


def test_ack_is_cumulative():
    sim, net, ring = deploy()
    prop = ring.proposers[0]
    for i in range(10):
        prop.multicast(f"m{i}", 1024)
    sim.run(until=1.0)
    assert prop.unacked == 0
    # The coordinator acked per decided batch, not per submission.
    assert ring.coordinator.instances_decided.value <= 3


def test_lost_ack_triggers_reack_on_duplicate():
    """A retransmission of an already-decided value must be re-acked."""
    sim, net, ring = deploy()
    prop = ring.proposers[0]
    value = prop.multicast("m", DEFAULT_VALUE_SIZE)
    sim.run(until=0.5)
    assert prop.unacked == 0
    # Simulate a lost ack: put the value back and retransmit.
    prop._unacked[value.seq] = value
    prop._send(value)
    sim.run(until=1.0)
    assert prop.unacked == 0  # duplicate was re-acked


def test_crashed_proposer_stops_retransmitting():
    sim, net, ring = deploy()
    prop = ring.proposers[0]
    ring.coordinator.crash()
    ring.coordinator.node.crash()
    prop.multicast("m", DEFAULT_VALUE_SIZE)
    sim.run(until=0.2)
    sent_before = prop.retransmissions.value
    assert sent_before > 0  # it was trying
    prop.crash()
    sim.run(until=1.0)
    assert prop.retransmissions.value == sent_before


@pytest.mark.parametrize("bad", [-1, float("nan")])
def test_a_bad_size_raises_before_the_proposer_burns_a_seq(bad):
    sim, net, ring = deploy()
    prop = ring.proposers[0]
    prop.multicast("ok", DEFAULT_VALUE_SIZE)

    def state():
        return (prop.seq, prop.sent.value, prop.sent_bytes.value, prop.unacked,
                sim.pending_events)

    before = state()
    with pytest.raises(ValueError, match="size"):
        prop.multicast(None, bad)
    assert state() == before
    sim.run(until=0.5)  # the good value decides; nothing is left to raise later
    assert prop.unacked == 0 and prop.seq == 1
