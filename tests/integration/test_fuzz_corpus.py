"""Seed-corpus regression test for the simulation fuzzer.

Each corpus seed fully determines a fuzz case — deployment, workload, and
fault schedule — so running it is a frozen end-to-end scenario under the
complete safety-oracle set plus liveness-after-heal. The corpus pins a
diverse slice of the case space; any seed that ever exposes a real
protocol bug gets appended here (with a comment naming the fix) so the
failure stays fixed forever.

The acceptance sweep (``python -m repro fuzz --runs 50 --seed 7``) covers
seeds 7–56; development also swept 100–249 clean. Keep this list small —
it runs in tier-1 — and diverse rather than long.
"""

import pytest

from repro.check import Schedule, ScheduleStep, run_case

# seed: (n_groups, durable) — what the drawn deployment exercises.
CORPUS = {
    8: (1, False),    # single ring, the minimal deployment
    10: (3, False),   # three rings, two proposers, small values
    17: (3, False),   # three rings under heavy 8 KiB payloads
    7: (2, True),     # durable acceptors, 3-acceptor rings
    19: (3, True),    # durable + three-ring merge
    44: (2, True),    # durable + 8 KiB payloads + two proposers
    55: (1, True),    # durable single ring at the top rate
    42: (3, True),    # durable, high rate, 3-acceptor rings
}


@pytest.mark.parametrize("seed", sorted(CORPUS))
def test_corpus_seed_runs_clean(seed):
    result = run_case(seed)
    assert result.ok, f"seed {seed} regressed: {result.message}"
    # The case actually exercised the protocol: proposals were made,
    # decided, delivered, and checked — not a vacuous pass.
    assert result.events_checked > 100
    expected_groups, expected_durable = CORPUS[seed]
    assert result.config.n_groups == expected_groups
    assert result.config.durable == expected_durable
    assert len(result.schedule) > 0


# Restart-heavy profile: every case deploys checkpointing replicas and
# the schedule pairs each crash with a restart, so the recovery paths
# (acceptor log replay, learner catch-up, checkpoint restore) and the
# liveness-after-restart oracle are all live. seed: (durable, what the
# drawn schedule crashes).
RESTART_CORPUS = {
    # 4 and 17: a replica restore lost what its merge had buffered at the
    # checkpoint (partial order, liveness) until the merge snapshot took
    # its queues along.
    4: (False, "replica"),      # two rings, replica + coordinator crash
    17: (False, "replica"),     # three rings, four replicas, ckpt=8
    100: (False, "acceptor"),   # amnesiac acceptor rejoins the ring
    102: (True, "both"),        # replica AND in-ring acceptor, ckpt=4
    105: (False, "replica"),    # three rings, replica crash, ckpt=16
    110: (True, "both"),        # durable, replica + acceptor, ckpt=8
}


@pytest.mark.parametrize("seed", sorted(RESTART_CORPUS))
def test_restart_heavy_corpus_seed_runs_clean(seed):
    result = run_case(seed, profile="restart-heavy")
    assert result.ok, f"seed {seed} regressed: {result.message}"
    assert result.events_checked > 100
    expected_durable, crashes = RESTART_CORPUS[seed]
    assert result.config.durable == expected_durable
    assert result.config.replicas > 0
    assert result.config.checkpoint_interval > 0
    targets = {
        s.target.split(":")[0]
        for s in result.schedule.steps
        if s.action == "crash" and s.target
    }
    if crashes in ("acceptor", "both"):
        assert "acceptor" in targets
    if crashes in ("replica", "both"):
        assert "replica" in targets


# Geo profile: every case deploys 2-3 regions joined by WAN links (with
# jitter) and the schedule cuts/heals links, spikes jitter, and adds
# light crash churn. seed: (n_groups, regions, wan_ms) — pinning the
# drawn deployment so a generator change cannot silently shrink coverage.
GEO_CORPUS = {
    9001: (1, 3, 5.0),    # minimal deployment, pure WAN cut
    9008: (3, 3, 5.0),    # durable three-ring merge across a WAN cut
    9009: (2, 3, 15.0),   # durable, jitter spikes + crash churn
    9015: (3, 2, 30.0),   # two partition windows + jitter, slow WAN
    9024: (1, 2, 30.0),   # durable single ring, cut + jitter + crash
}


@pytest.mark.parametrize("seed", sorted(GEO_CORPUS))
def test_geo_corpus_seed_runs_clean(seed):
    result = run_case(seed, profile="geo")
    assert result.ok, f"geo seed {seed} regressed: {result.message}"
    assert result.events_checked > 100
    expected_groups, expected_regions, expected_wan_ms = GEO_CORPUS[seed]
    assert result.config.profile == "geo"
    assert result.config.n_groups == expected_groups
    assert result.config.regions == expected_regions
    assert result.config.wan_ms == expected_wan_ms
    actions = {s.action for s in result.schedule.steps}
    assert "wan_partition" in actions


def test_partial_order_holds_across_wan_partition_heal():
    """Acceptance schedule for the geo layer: sever two regions for half
    the run, then heal. Proposers behind the cut keep retransmitting, so
    after the heal every multicast decides and delivers; the cross-ring
    partial-order oracle (learners sharing groups agree on the relative
    order of shared deliveries) and liveness-after-heal must both hold
    across the outage. Seed 9008 deploys three durable rings over three
    regions, so the cut severs live ring traffic, not an idle link."""
    base = run_case(9008, profile="geo")
    assert base.ok
    schedule = Schedule([
        ScheduleStep(0.3, "wan_partition", island=("dc0", "dc1")),
        ScheduleStep(0.8, "wan_heal"),
    ])
    result = run_case(9008, config=base.config, schedule=schedule)
    assert result.ok, f"WAN partition/heal broke an oracle: {result.message}"
    assert result.events_checked > 100


def test_acceptor_crash_restart_mid_instance_recovers():
    """Acceptance schedule: a durable in-ring acceptor dies mid-instance
    and comes back. Recovery must replay its persisted log (so it keeps
    answering Phase 1 / repair for old instances) and re-chain it into
    the ring; every oracle plus liveness-after-restart then holds."""
    base = run_case(102, profile="restart-heavy")
    assert base.ok
    schedule = Schedule([
        ScheduleStep(0.4, "crash", target="acceptor:0:0"),
        ScheduleStep(0.9, "restart", target="acceptor:0:0"),
    ])
    result = run_case(102, config=base.config, schedule=schedule)
    assert result.ok, f"acceptor crash/restart broke the ring: {result.message}"


def test_replica_crash_past_first_checkpoint_recovers():
    """Acceptance schedule: a replica dies well past its first checkpoint
    (interval 4, crash at 60% of a 1.5 s run). The restart must restore
    the durable checkpoint, roll the learner back to the checkpointed
    positions, and catch up the suffix — divergence here trips the
    replica-order oracle, a stall trips liveness-after-restart."""
    base = run_case(102, profile="restart-heavy")
    assert base.ok
    assert base.config.checkpoint_interval == 4
    schedule = Schedule([
        ScheduleStep(0.9, "crash", target="replica:0"),
        ScheduleStep(1.2, "restart", target="replica:0"),
    ])
    result = run_case(102, config=base.config, schedule=schedule)
    assert result.ok, f"replica checkpoint recovery failed: {result.message}"


# Reconfig profile: live elasticity — group remaps, ring splits and
# merges — racing crash churn, partitions and loss, under the
# epoch-boundary oracles (epoch-order, group-fifo, plus the re-based
# ring-order check). seed: (n_groups, elasticity actions the drawn
# schedule must contain) — pinned so a generator change cannot silently
# drop the coverage the seed was chosen for.
RECONFIG_CORPUS = {
    0: (2, {"remap", "ring_split"}),            # remaps + split, loss window
    6: (3, {"remap", "ring_split", "ring_merge"}),  # split then merge back
    10: (3, {"remap", "ring_split"}),           # split + remaps under partition
    14: (2, {"ring_split", "ring_merge"}),      # split/merge + partition + churn
    17: (3, {"remap", "ring_merge"}),           # merge under loss + partition
    25: (2, {"remap", "ring_merge"}),           # chained remaps then merge
}


@pytest.mark.parametrize("seed", sorted(RECONFIG_CORPUS))
def test_reconfig_corpus_seed_runs_clean(seed):
    result = run_case(seed, profile="reconfig")
    assert result.ok, f"reconfig seed {seed} regressed: {result.message}"
    assert result.events_checked > 100
    expected_groups, expected_actions = RECONFIG_CORPUS[seed]
    assert result.config.profile == "reconfig"
    assert result.config.n_groups == expected_groups
    # Every learner consumes every group (the profile's common-order scope).
    assert all(subs == list(range(expected_groups)) for subs in result.config.learners)
    actions = {s.action for s in result.schedule.steps}
    assert expected_actions <= actions


def test_group_remap_survives_partition_of_source_ring():
    """Acceptance schedule: a live remap's source ring is partitioned off
    mid-move. Seed 0 maps group 1 onto ring 1; the remap starts at 0.3 s
    and the partition isolates ring 1's coordinator and an acceptor at
    0.35 s — before the leave cut can decide — so the manager's retry
    timer must carry the cut across the heal at 0.8 s. Everything the
    proposer multicast must still deliver exactly once, in per-sender
    seq order, with epochs monotone (group-fifo / epoch-order oracles).
    """
    base = run_case(0, profile="reconfig")
    assert base.ok
    schedule = Schedule([
        ScheduleStep(0.3, "remap", group=1, ring=0),
        ScheduleStep(0.35, "partition", island=("mr1-acc0", "mr1-coord")),
        ScheduleStep(0.8, "heal"),
    ])
    result = run_case(0, config=base.config, schedule=schedule)
    assert result.ok, f"remap across partition broke an oracle: {result.message}"
    assert result.events_checked > 100


def test_ring_split_under_load_delivers_everything():
    """Acceptance schedule: consolidate both groups onto ring 0, then
    split the now-overloaded ring while the workload is still submitting
    (traffic spans the first 80% of the run). The split deploys a fresh
    ring mid-run and moves group 1 onto it; in-flight values bounce off
    the draining ring and must re-decide on the new one without loss,
    duplication, or seq reordering.
    """
    base = run_case(0, profile="reconfig")
    assert base.ok
    schedule = Schedule([
        ScheduleStep(0.25, "remap", group=1, ring=0),
        ScheduleStep(0.6, "ring_split", ring=0),
    ])
    result = run_case(0, config=base.config, schedule=schedule)
    assert result.ok, f"ring split under load broke an oracle: {result.message}"
    assert result.events_checked > 100


def test_crashed_proposer_must_not_burn_seqs():
    """The fuzzer's first real catch, pinned as its minimized schedule.

    A crashed ``RingProposer`` used to consume a sequence number for each
    value it dropped; the coordinator restores per-sender FIFO order by
    buffering seq gaps, so the burned seq left a hole nothing could ever
    fill — permanently wedging the sender's stream after restart. The
    shrunk reproducer is just crash + restart of one proposer mid-stream;
    with the fix (crashed proposers do not consume seqs) the stream
    resumes and liveness holds. See docs/fuzzing.md, "What it has caught".
    """
    base = run_case(8)  # seed 8: single ring, one proposer (see CORPUS)
    assert base.ok
    schedule = Schedule([
        ScheduleStep(0.4, "crash", target="proposer:0"),
        ScheduleStep(0.7, "restart", target="proposer:0"),
    ])
    result = run_case(8, config=base.config, schedule=schedule)
    assert result.ok, f"proposer crash/restart wedged the stream: {result.message}"


def test_corpus_seed_is_deterministic():
    a, b = run_case(19), run_case(19)
    assert a.ok and b.ok
    assert a.events_checked == b.events_checked
    assert a.schedule.steps == b.schedule.steps
