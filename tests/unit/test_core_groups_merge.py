"""Unit tests for the group registry and the deterministic merge."""

import pytest

from repro.core import DeterministicMerge, GroupRegistry
from repro.errors import ConfigurationError
from repro.ringpaxos import ClientValue, DataBatch, SkipRange


# ---------------------------------------------------------------------------
# GroupRegistry
# ---------------------------------------------------------------------------
def test_registry_add_and_lookup():
    reg = GroupRegistry()
    reg.add(0, 0)
    reg.add(1, 1)
    assert reg.ring_for(0) == 0
    assert reg.ring_for(1) == 1
    assert 0 in reg and 2 not in reg
    assert len(reg) == 2


def test_registry_rejects_duplicates_and_unknowns():
    reg = GroupRegistry()
    reg.add(0, 0)
    with pytest.raises(ConfigurationError):
        reg.add(0, 1)
    with pytest.raises(ConfigurationError):
        reg.ring_for(9)


def test_registry_ring_order_is_ascending_ring_ids():
    reg = GroupRegistry()
    reg.add(0, 5)
    reg.add(1, 2)
    reg.add(2, 5)
    # Deduplicated and ascending, whatever the group ids: the merge's
    # visit order must not depend on what a learner subscribes to.
    assert reg.rings_for([2, 0, 1]) == [2, 5]
    assert reg.rings_for([1]) == [2]
    assert reg.groups_on_ring(5) == [0, 2]


def test_registry_group_ids_sorted():
    reg = GroupRegistry()
    for gid in (3, 1, 2):
        reg.add(gid, gid)
    assert reg.group_ids() == [1, 2, 3]


def test_registry_remap_rebinds_group():
    reg = GroupRegistry()
    reg.add(0, 0)
    reg.add(1, 1)
    group = reg.remap(1, 0)
    assert group.ring_id == 0
    assert reg.ring_for(1) == 0
    assert reg.groups_on_ring(0) == [0, 1]
    assert reg.groups_on_ring(1) == []


def test_registry_remap_unknown_group_rejected():
    reg = GroupRegistry()
    reg.add(0, 0)
    with pytest.raises(ConfigurationError):
        reg.remap(7, 0)


def test_registry_remap_to_unknown_ring_rejected():
    reg = GroupRegistry()
    reg.add(0, 0)
    with pytest.raises(ConfigurationError):
        reg.remap(0, 9, known_rings={0, 1})
    # ...and the binding is untouched by the failed remap.
    assert reg.ring_for(0) == 0
    # Without known_rings the table cannot validate; the caller
    # (ReconfigManager) has already checked the ring exists.
    assert reg.remap(0, 9).ring_id == 9


def test_registry_remap_is_idempotent():
    reg = GroupRegistry()
    reg.add(0, 3)
    before = reg.get(0)
    after = reg.remap(0, 3, known_rings={3})
    assert after is before  # no-op returns the existing binding
    assert reg.ring_for(0) == 3


# ---------------------------------------------------------------------------
# DeterministicMerge helpers
# ---------------------------------------------------------------------------
def cv(tag, group=0, size=10):
    return ClientValue(payload=tag, size=size, group=group)


def batch(vid, *tags, group=0):
    return DataBatch(vid, tuple(cv(t, group=group) for t in tags))


def make_merge(rings=(0, 1), m=1, buffer_limit=1000):
    out = []
    merge = DeterministicMerge(
        ring_order=list(rings),
        m=m,
        on_deliver=lambda rid, inst, v: out.append((rid, v.payload)),
        buffer_limit=buffer_limit,
    )
    return merge, out


# ---------------------------------------------------------------------------
# DeterministicMerge behaviour
# ---------------------------------------------------------------------------
def test_single_ring_merge_is_passthrough():
    merge, out = make_merge(rings=(0,))
    merge.push(0, 0, batch(0, "a"))
    merge.push(0, 1, batch(1, "b"))
    assert [p for _, p in out] == ["a", "b"]


def test_round_robin_m1_alternates_rings():
    merge, out = make_merge(m=1)
    merge.push(0, 0, batch(0, "a0"))
    merge.push(0, 1, batch(1, "a1"))
    merge.push(1, 0, batch(0, "b0"))
    merge.push(1, 1, batch(1, "b1"))
    assert [p for _, p in out] == ["a0", "b0", "a1", "b1"]


def test_merge_blocks_until_other_ring_produces():
    merge, out = make_merge(m=1)
    merge.push(0, 0, batch(0, "a0"))
    merge.push(0, 1, batch(1, "a1"))
    # Only ring 0 produced: after delivering a0 the merge must wait for
    # ring 1 before a1 (this is the Figure 4 buffering of m4).
    assert [p for _, p in out] == ["a0"]
    assert merge.queue_depth(0) == 1
    merge.push(1, 0, batch(0, "b0"))
    assert [p for _, p in out] == ["a0", "b0", "a1"]


def test_merge_m_greater_than_one_consumes_m_per_visit():
    merge, out = make_merge(m=2)
    for i in range(4):
        merge.push(0, i, batch(i, f"a{i}"))
    for i in range(4):
        merge.push(1, i, batch(i, f"b{i}"))
    assert [p for _, p in out] == ["a0", "a1", "b0", "b1", "a2", "a3", "b2", "b3"]


def test_skip_range_consumed_without_delivery():
    merge, out = make_merge(m=1)
    merge.push(0, 0, batch(0, "a0"))
    merge.push(1, 0, SkipRange(1))
    merge.push(0, 1, batch(1, "a1"))
    merge.push(1, 1, SkipRange(1))
    assert [p for _, p in out] == ["a0", "a1"]
    assert merge.skipped_instances.value == 2


def test_skip_range_straddles_quota_boundaries():
    merge, out = make_merge(m=3)
    # Ring 1 contributes one big skip range; ring 0 has data.
    for i in range(6):
        merge.push(0, i, batch(i, f"a{i}"))
    merge.push(1, 0, SkipRange(6))
    # Visits: r0 x3, r1 consumes 3 of the range, r0 x3, r1 rest.
    assert [p for _, p in out] == ["a0", "a1", "a2", "a3", "a4", "a5"]
    assert merge.consumed_instances.value == 12


def test_batch_with_multiple_values_is_one_instance():
    merge, out = make_merge(m=1)
    merge.push(0, 0, batch(0, "x", "y", "z"))
    merge.push(1, 0, batch(0, "b0"))
    assert [p for _, p in out] == ["x", "y", "z", "b0"]
    assert merge.consumed_instances.value == 2


def test_identical_subscriptions_deliver_identical_order():
    """Uniform partial order: two merges fed the same streams agree."""
    streams = {
        0: [batch(i, f"a{i}") for i in range(5)],
        1: [batch(i, f"b{i}") for i in range(5)],
    }
    orders = []
    for interleave in (True, False):
        merge, out = make_merge(m=2)
        if interleave:
            for i in range(5):
                merge.push(0, i, streams[0][i])
                merge.push(1, i, streams[1][i])
        else:
            for i in range(5):
                merge.push(1, i, streams[1][i])
            for i in range(5):
                merge.push(0, i, streams[0][i])
        orders.append([p for _, p in out])
    assert orders[0] == orders[1]


def test_buffer_overflow_halts_merge():
    halted = []
    merge = DeterministicMerge(
        ring_order=[0, 1],
        m=1,
        on_deliver=lambda *a: None,
        buffer_limit=10,
        on_halt=lambda: halted.append(True),
    )
    # Ring 1 floods while ring 0 is silent: buffer grows past the limit.
    for i in range(12):
        merge.push(1, i, batch(i, f"b{i}"))
    assert merge.halted
    assert halted == [True]
    # Once halted, nothing is delivered even if ring 0 wakes up.
    merge.push(0, 0, batch(0, "late"))
    assert merge.delivered_messages.value == 0


def test_merge_validation():
    with pytest.raises(ValueError):
        DeterministicMerge([], 1, lambda *a: None)
    with pytest.raises(ValueError):
        DeterministicMerge([0, 0], 1, lambda *a: None)
    with pytest.raises(ValueError):
        DeterministicMerge([0], 0, lambda *a: None)


def test_three_ring_rotation_order():
    merge, out = make_merge(rings=(0, 1, 2), m=1)
    for rid in (2, 1, 0):  # arrival order must not matter
        merge.push(rid, 0, batch(0, f"r{rid}"))
    assert [p for _, p in out] == ["r0", "r1", "r2"]


# ---------------------------------------------------------------------------
# Rings joined and left at a reconfiguration cut: the merge keeps its place
# ---------------------------------------------------------------------------
def switching_merge(rings, at, join=None, leave=()):
    """A merge that joins ``join`` = (ring, instance), then leaves the
    rings ``leave``, when it delivers payload ``at``."""
    out = []

    def deliver(rid, inst, v):
        out.append(v.payload)
        if v.payload == at:
            if join is not None:
                merge.join(*join)
            for ring in leave:
                merge.leave(ring)

    merge = DeterministicMerge(ring_order=list(rings), m=1, on_deliver=deliver)
    return merge, out


def test_a_ring_leaving_mid_round_passes_the_turn_to_the_next_ring():
    """Ring 1 leaves while its round-0 turn is on: ring 2 takes round 0's
    next turn, as for a learner that never had ring 1."""
    merge, out = switching_merge([0, 1, 2], at="b0", leave=[1])
    merge.push(0, 0, batch(0, "a0"))
    merge.push(1, 0, batch(0, "b0"))
    for i in range(2):
        merge.push(0, i + 1, batch(i + 1, f"a{i + 1}"))
        merge.push(2, i, batch(i, f"c{i}"))
    assert out == ["a0", "b0", "c0", "a1", "c1", "a2"]


def test_a_ring_joined_behind_the_place_is_consumed_first():
    """Ring 2 joins at instance 1 when the merge is at round 3, ring 0's
    turn: its instances 1-2 come right after the cut, before ring 1's
    round-3 turn, which waits for them."""
    merge, out = switching_merge([0, 1], at="a3", join=(2, 1))
    for i in range(4):
        merge.push(0, i, batch(i, f"a{i}"))
        merge.push(1, i, batch(i, f"b{i}"))
    assert out == ["a0", "b0", "a1", "b1", "a2", "b2", "a3"]
    for i in range(1, 5):
        merge.push(2, i, batch(i, f"c{i}"))
    merge.push(0, 4, batch(4, "a4"))
    merge.push(1, 4, batch(4, "b4"))
    assert out[7:] == ["c1", "c2", "b3", "c3", "a4", "b4", "c4"]


def test_a_ring_joined_ahead_of_the_place_reads_as_skips_until_its_start():
    """Ring 2 joins at instance 6 when the merge is at round 3: its rounds
    3-5 are absorbed as skips and its instance 6 is consumed in round 6."""
    merge, out = switching_merge([0, 1], at="a3", join=(2, 6))
    for i in range(8):
        merge.push(0, i, batch(i, f"a{i}"))
        merge.push(1, i, batch(i, f"b{i}"))
    merge.push(2, 6, batch(6, "c6"))
    merge.push(2, 7, batch(7, "c7"))
    assert out[7:] == ["b3", "a4", "b4", "a5", "b5", "a6", "b6", "c6", "a7", "b7", "c7"]
    assert merge.skipped_instances.value == 3


def test_ring_order_must_be_ascending():
    with pytest.raises(ValueError):
        make_merge(rings=(1, 0))
    merge, _ = make_merge()
    with pytest.raises(ValueError):
        merge.join(0, 0)  # ring 0 is merged already
