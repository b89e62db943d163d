"""Integration tests for the Multi-Ring Paxos deployment (Algorithm 1)."""

import pytest

from repro import MultiRingConfig, MultiRingPaxos
from repro.core import AdmissionPolicy
from repro.errors import ConfigurationError

SIZE = 8192


def make(n_groups=2, **kwargs):
    kwargs.setdefault("lambda_rate", 2000.0)
    kwargs.setdefault("delta", 1e-3)
    return MultiRingPaxos(MultiRingConfig(n_groups=n_groups, **kwargs))


def collector(mrp, groups):
    out = []
    learner = mrp.add_learner(groups=groups, on_deliver=lambda g, v: out.append((g, v.payload)))
    return learner, out


def test_config_validation():
    with pytest.raises(ConfigurationError):
        MultiRingConfig(n_groups=0)
    with pytest.raises(ConfigurationError):
        MultiRingConfig(n_groups=2, n_rings=3)
    with pytest.raises(ConfigurationError):
        MultiRingConfig(m=0)
    cfg = MultiRingConfig(n_groups=4)
    assert cfg.n_rings == 4
    assert cfg.ring_of_group(3) == 3


@pytest.mark.parametrize(
    "knob, bad",
    [(knob, float("nan")) for knob in (
        "lambda_rate", "delta", "suspect_timeout", "series_bucket",
        "batch_timeout", "buffer_limit", "window", "batch_size",
    )]
    + [("lambda_rate", -1.0), ("delta", 0.0), ("suspect_timeout", 0.0), ("series_bucket", 0.0),
       ("batch_timeout", -1e-3), ("buffer_limit", -1), ("window", 0), ("batch_size", 0)],
)
def test_config_rejects_bad_and_nan_knobs_where_it_is_built(knob, bad):
    # Not one layer down (RingConfig, PeriodicTimer, add_learner), after a
    # deployment has attached some of its nodes — or never.
    with pytest.raises(ConfigurationError):
        MultiRingConfig(**{knob: bad})


def test_config_group_mapping_round_robin():
    cfg = MultiRingConfig(n_groups=4, n_rings=2)
    assert [cfg.ring_of_group(g) for g in range(4)] == [0, 1, 0, 1]
    with pytest.raises(ConfigurationError):
        cfg.ring_of_group(4)


def test_single_group_behaves_as_atomic_broadcast():
    mrp = make(n_groups=1)
    learner, out = collector(mrp, [0])
    prop = mrp.add_proposer()
    for i in range(20):
        prop.multicast(0, f"m{i}", SIZE)
    mrp.run(until=2.0)
    assert [p for _, p in out] == [f"m{i}" for i in range(20)]


def test_messages_reach_only_subscribed_groups():
    mrp = make(n_groups=2)
    l0, out0 = collector(mrp, [0])
    l1, out1 = collector(mrp, [1])
    prop = mrp.add_proposer()
    prop.multicast(0, "to-g0", SIZE)
    prop.multicast(1, "to-g1", SIZE)
    mrp.run(until=2.0)
    assert out0 == [(0, "to-g0")]
    assert out1 == [(1, "to-g1")]


def test_multi_group_learner_delivers_all_subscribed():
    mrp = make(n_groups=2)
    learner, out = collector(mrp, [0, 1])
    prop = mrp.add_proposer()
    for i in range(10):
        prop.multicast(i % 2, f"m{i}", SIZE)
    mrp.run(until=3.0)
    assert sorted(p for _, p in out) == sorted(f"m{i}" for i in range(10))
    assert learner.delivered_messages.value == 10


def test_uniform_partial_order_across_learners():
    """Two learners subscribed to both groups deliver identical sequences."""
    mrp = make(n_groups=2)
    _, out_a = collector(mrp, [0, 1])
    _, out_b = collector(mrp, [0, 1])
    prop = mrp.add_proposer()
    for i in range(40):
        prop.multicast(i % 2, f"m{i}", SIZE)
    mrp.run(until=5.0)
    assert len(out_a) == 40
    assert out_a == out_b


def test_partial_order_with_overlapping_subscriptions():
    """A learner of {g0} and one of {g0, g1} agree on g0's relative order."""
    mrp = make(n_groups=2)
    _, out_single = collector(mrp, [0])
    _, out_both = collector(mrp, [0, 1])
    prop = mrp.add_proposer()
    for i in range(30):
        prop.multicast(i % 2, f"m{i}", SIZE)
    mrp.run(until=5.0)
    g0_single = [p for g, p in out_single if g == 0]
    g0_both = [p for g, p in out_both if g == 0]
    assert g0_single == g0_both
    assert len(g0_single) == 15


def test_skips_unblock_idle_group():
    """With only group 0 active, skips on ring 1 keep the merge advancing."""
    mrp = make(n_groups=2)
    learner, out = collector(mrp, [0, 1])
    prop = mrp.add_proposer()
    for i in range(10):
        prop.multicast(0, f"m{i}", SIZE)
    mrp.run(until=2.0)
    assert [p for _, p in out] == [f"m{i}" for i in range(10)]
    assert mrp.rings[1].skip_manager.skips_proposed.value > 0
    assert learner.merge.skipped_instances.value > 0


def test_lambda_zero_blocks_multi_group_learner():
    """Figure 9's λ = 0: no skips, so an idle ring starves the merge."""
    mrp = make(n_groups=2, lambda_rate=0.0)
    learner, out = collector(mrp, [0, 1])
    prop = mrp.add_proposer()
    for i in range(10):
        prop.multicast(0, f"m{i}", SIZE)
    mrp.run(until=2.0)
    # With M = 1 the learner delivers one g0 message, then waits forever
    # for ring 1 (which never produces an instance).
    assert len(out) <= 1
    assert learner.buffered_instances >= 9


def test_lambda_zero_single_group_unaffected():
    mrp = make(n_groups=2, lambda_rate=0.0)
    learner, out = collector(mrp, [0])
    prop = mrp.add_proposer()
    for i in range(10):
        prop.multicast(0, f"m{i}", SIZE)
    mrp.run(until=2.0)
    assert len(out) == 10


def test_buffer_overflow_halts_learner():
    mrp = make(n_groups=2, lambda_rate=0.0, buffer_limit=20)
    learner, out = collector(mrp, [0, 1])
    prop = mrp.add_proposer()
    for i in range(40):
        prop.multicast(0, f"m{i}", SIZE)
    mrp.run(until=3.0)
    assert learner.halted


def test_groups_sharing_one_ring():
    """γ > δ mapping: both groups on one ring; filtering at the learner."""
    mrp = make(n_groups=2, n_rings=1)
    l0, out0 = collector(mrp, [0])
    prop = mrp.add_proposer()
    prop.multicast(0, "mine", SIZE)
    prop.multicast(1, "not-mine", SIZE)
    mrp.run(until=2.0)
    assert out0 == [(0, "mine")]
    assert l0.discarded_messages.value == 1
    # The unwanted message still consumed the learner's ingress bandwidth.
    assert l0.ring_learners[0].received_bytes.value >= 2 * SIZE


def test_durable_multiring_works():
    mrp = make(n_groups=2, durable=True)
    learner, out = collector(mrp, [0, 1])
    prop = mrp.add_proposer()
    for i in range(6):
        prop.multicast(i % 2, f"m{i}", SIZE)
    mrp.run(until=2.0)
    assert len(out) == 6
    for handle in mrp.rings.values():
        assert handle.coordinator.node.disk.bytes_written > 0


def test_coordinator_crash_stops_delivery_and_restart_recovers():
    """The Figure 12 scenario in miniature."""
    mrp = make(n_groups=2)
    learner, out = collector(mrp, [0, 1])
    prop = mrp.add_proposer()
    for i in range(4):
        prop.multicast(i % 2, f"m{i}", SIZE)
    mrp.run(until=1.0)
    n_before = len(out)
    assert n_before == 4
    mrp.crash_coordinator(0)
    # Ring 1 keeps producing but the learner cannot merge past ring 0.
    for i in range(4, 10):
        prop.multicast(1, f"m{i}", SIZE)
    mrp.run(until=2.0)
    assert len(out) <= n_before + 1
    mrp.restart_coordinator(0)
    mrp.run(until=4.0)
    assert sorted(p for _, p in out) == sorted(f"m{i}" for i in range(10))


def test_learner_rejects_unknown_group():
    mrp = make(n_groups=2)
    with pytest.raises(ConfigurationError):
        mrp.add_learner(groups=[5])


def test_latency_accounting_at_multiring_learner():
    mrp = make(n_groups=2)
    learner, _ = collector(mrp, [0, 1])
    prop = mrp.add_proposer()
    for i in range(10):
        prop.multicast(i % 2, f"m{i}", SIZE)
    mrp.run(until=2.0)
    assert learner.latency.count == 10
    assert 0 < learner.latency.mean < 0.1
    assert learner.delivered_bytes.value == 10 * SIZE
    assert learner.group_bytes[0].value == 5 * SIZE


@pytest.mark.parametrize("bad", [-5, float("nan")])
@pytest.mark.parametrize("entry", ["multicast", "submit", "submit behind admission"])
def test_a_bad_size_raises_at_the_entry_point_and_changes_nothing(entry, bad):
    mrp = make(n_groups=1)
    admission = AdmissionPolicy(max_inflight=1, max_queue=4) if "admission" in entry else None
    proposer = mrp.add_proposer(admission=admission)
    proposer.submit(0, "ok", SIZE)  # behind admission, the next offer would be delayed
    ring_proposer = proposer._ring_proposers[0]

    def state():
        queued = proposer.admission.queue_depth if proposer.admission else 0
        return (ring_proposer.seq, ring_proposer.sent.value, proposer.multicasts.value,
                proposer.multicast_bytes.value, proposer.unacked, queued,
                mrp.sim.pending_events)

    before = state()
    with pytest.raises(ValueError, match="size"):
        getattr(proposer, entry.split()[0])(0, "bad", bad)
    assert state() == before
    mrp.sim.run(until=0.05)  # the good value drains; nothing raises out of run
    assert proposer.unacked == 0 and ring_proposer.seq == 1
